// Lightweight statistics collectors for simulation runs, sweeps and
// serving latencies.

#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace af::sim {

// Streaming mean/min/max/variance (Welford).
class RunningStat {
 public:
  void add(double x);
  // Folds another collector in (Chan et al. parallel Welford combination):
  // the result is as if every sample of `o` had been add()ed here.  Used to
  // reduce per-thread collectors after a parallel sweep.
  void merge(const RunningStat& o);
  std::int64_t count() const { return count_; }
  double mean() const { return mean_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double variance() const;  // sample variance; 0 for < 2 samples
  double stddev() const;

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Log-bucketed (HDR-style) histogram of non-negative samples; the serving
// layer records latencies in ms.  Each power of two from 2^kMinExponent
// (~1 us) up to 2^kMaxExponent (~70 min) splits into kSubBuckets equal
// buckets, indexed from the double's exponent and top mantissa bits.
// Samples below the bottom edge share the first bucket; samples at or
// above the top edge are counted by overflow().  count, mean, min and max
// come from the samples themselves, not from the buckets.
//
// quantile(q) is nearest-rank: the upper edge of the bucket holding the
// ceil(q * count)-th smallest sample, clamped into [min, max].  It never
// under-reports, over-reports by at most 1/kSubBuckets of the true value
// (a sample below the bottom edge reads as at most the first bucket's
// upper edge), and is exactly max when the rank falls in max's bucket or
// in the overflow.  The layout is fixed, so two histograms merge by adding
// counts.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 6;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMinExponent = -10;
  static constexpr int kMaxExponent = 22;

  void add(double x);
  std::int64_t count() const { return count_; }
  std::int64_t overflow() const { return overflow_; }
  double mean() const;  // 0 for no samples
  double min() const { return min_; }
  double max() const { return max_; }
  // q in [0, 1].  Requires at least one sample.
  double quantile(double q) const;

 private:
  static constexpr int kBuckets = (kMaxExponent - kMinExponent) * kSubBuckets;

  std::int64_t count_ = 0;
  std::int64_t overflow_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::array<std::int64_t, kBuckets> counts_{};
};

}  // namespace af::sim
