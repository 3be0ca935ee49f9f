#include "util/rng.h"

#include "util/status.h"

namespace af {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // SplitMix64 over seed, seed + phi, seed + 2 phi, ... expands the seed
  // into the xoshiro state.
  for (auto& word : state_) {
    word = splitmix64(seed);
    seed += 0x9e3779b97f4a7c15ULL;
  }
  // A pathological all-zero state would stay at zero forever.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  AF_CHECK(bound > 0, "Rng::next_below requires bound > 0");
  // Rejection sampling over the largest multiple of `bound`.
  const std::uint64_t limit = bound * (~0ULL / bound);
  std::uint64_t value = next_u64();
  while (value >= limit) value = next_u64();
  return value % bound;
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  AF_CHECK(lo <= hi, "Rng::next_in requires lo <= hi, got [" << lo << ", "
                                                             << hi << "]");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
  // 53 random mantissa bits.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

}  // namespace af
