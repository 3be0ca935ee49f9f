#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/status.h"
#include "util/strings.h"

namespace af::sim {

void RunningStat::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::merge(const RunningStat& o) {
  // Empty operands never reach the Chan combination below: it divides by
  // the merged count, and folding an empty collector's sentinel
  // min_/max_/mean_ through it would poison the result.
  if (o.count_ == 0) return;
  if (count_ == 0) {
    *this = o;
    return;
  }
  if (&o == this) {
    // Self-merge: every sample counted twice.  The mean and extrema are
    // unchanged; deviations (and hence m2_) simply double.  Handled apart
    // because the general path reads o's fields after mutating ours.
    m2_ *= 2.0;
    count_ *= 2;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(o.count_);
  const double delta = o.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += o.m2_ + delta * delta * na * nb / (na + nb);
  count_ += o.count_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double RunningStat::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, int buckets)
    : lo_(lo), hi_(hi), counts_(static_cast<std::size_t>(buckets), 0) {
  AF_CHECK(buckets > 0, "histogram needs at least one bucket");
  AF_CHECK(hi > lo, "histogram range must be non-empty");
}

void Histogram::add(double x) {
  const double frac = (x - lo_) / (hi_ - lo_);
  int idx = static_cast<int>(frac * static_cast<double>(counts_.size()));
  idx = std::clamp(idx, 0, static_cast<int>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::quantile(double q) const {
  AF_CHECK(total_ > 0, "quantile of an empty histogram");
  q = std::clamp(q, 0.0, 1.0);
  const double step = (hi_ - lo_) / static_cast<double>(counts_.size());
  const double target = q * static_cast<double>(total_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      const double frac =
          (target - cumulative) / static_cast<double>(counts_[i]);
      return lo_ + step * (static_cast<double>(i) + std::clamp(frac, 0.0, 1.0));
    }
    cumulative = next;
  }
  return hi_;
}

std::int64_t Histogram::bucket_count(int i) const {
  AF_CHECK(i >= 0 && i < buckets(), "bucket index out of range");
  return counts_[static_cast<std::size_t>(i)];
}

std::string Histogram::render() const {
  std::ostringstream out;
  const double step = (hi_ - lo_) / static_cast<double>(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double b0 = lo_ + step * static_cast<double>(i);
    out << format("[%10.3f, %10.3f): %lld\n", b0, b0 + step,
                  static_cast<long long>(counts_[i]));
  }
  return out.str();
}

}  // namespace af::sim
