// Lightweight statistics collectors for simulation runs and sweeps.

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

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

// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
// edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, int buckets);
  void add(double x);
  std::int64_t bucket_count(int i) const;
  int buckets() const { return static_cast<int>(counts_.size()); }
  std::int64_t total() const { return total_; }
  // Estimated q-quantile (q in [0, 1]), linearly interpolated inside the
  // bucket where the cumulative count crosses q * total.  Resolution is one
  // bucket width — the serving layer's latency percentiles (p50/p99) use
  // this with a few thousand buckets.  Requires at least one sample.
  double quantile(double q) const;
  // "lo..hi: count" lines for reports.
  std::string render() const;

 private:
  double lo_, hi_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
};

}  // namespace af::sim
