#include "util/strings.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>

namespace af {

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string with_commas(std::int64_t value) {
  const bool negative = value < 0;
  // Negate through the unsigned magnitude: -INT64_MIN does not fit int64.
  const std::uint64_t magnitude = negative
                                      ? 0 - static_cast<std::uint64_t>(value)
                                      : static_cast<std::uint64_t>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (negative) out.push_back('-');
  return {out.rbegin(), out.rend()};
}

std::string fixed(double value, int digits) {
  return format("%.*f", digits, value);
}

std::string percent(double fraction, int digits) {
  return format("%.*f%%", digits, fraction * 100.0);
}

std::string format_time_ps(double ps) {
  if (std::fabs(ps) < 1e3) return format("%.1f ps", ps);
  if (std::fabs(ps) < 1e6) return format("%.2f ns", ps / 1e3);
  if (std::fabs(ps) < 1e9) return format("%.2f us", ps / 1e6);
  return format("%.3f ms", ps / 1e9);
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream in(s);
  while (std::getline(in, field, delim)) out.push_back(field);
  if (!s.empty() && s.back() == delim) out.emplace_back();
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace af
