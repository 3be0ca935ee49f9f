// Deterministic pseudo-random number generation.
//
// All stochastic pieces of the library (test-input generation, synthetic
// activation tensors, randomized property sweeps) draw from this xoshiro256**
// generator seeded explicitly, so every experiment is reproducible bit-for-bit
// across runs and platforms.  std::mt19937 is avoided because its
// distribution adapters are not portable across standard libraries.

#pragma once

#include <cstdint>
#include <vector>

namespace af {

// SplitMix64 (Steele, Lea and Flood): a stateless mix in which every input
// bit reaches every output bit.  The one copy behind Rng seeding, hashing,
// router ring points and draws, steal order, chaos draws and cost-cache
// sharding.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit word.
  std::uint64_t next_u64();

  // Uniform in [0, bound) without modulo bias; bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform signed integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double next_double();

  // Convenience: vector of `n` signed values in [lo, hi].
  std::vector<std::int32_t> int32_vector(std::size_t n, std::int32_t lo,
                                         std::int32_t hi);

 private:
  std::uint64_t state_[4];
};

}  // namespace af
