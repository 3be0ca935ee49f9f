#include "sim/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/status.h"

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

namespace {

constexpr double kBottomEdge = 1.0 / (1LL << -Histogram::kMinExponent);
constexpr double kTopEdge =
    static_cast<double>(1LL << Histogram::kMaxExponent);
constexpr int kMantissaBits = 52;
constexpr int kExponentBias = 1023;

// x's bucket: the octave from the biased exponent, the sub-bucket from the
// top kSubBucketBits of the mantissa.  Requires x < kTopEdge.
std::size_t bucket_of(double x) {
  if (!(x >= kBottomEdge)) return 0;
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t octave =
      (bits >> kMantissaBits) - (kExponentBias + Histogram::kMinExponent);
  const std::uint64_t sub =
      (bits >> (kMantissaBits - Histogram::kSubBucketBits)) &
      (Histogram::kSubBuckets - 1);
  return static_cast<std::size_t>(octave * Histogram::kSubBuckets + sub);
}

// The exclusive upper edge of bucket i (exact in a double): every sample
// in the bucket lies below it.
double upper_edge(int i) {
  constexpr double kSubWidth = 1.0 / Histogram::kSubBuckets;
  return std::ldexp(1.0 + (i % Histogram::kSubBuckets + 1) * kSubWidth,
                    Histogram::kMinExponent + i / Histogram::kSubBuckets);
}

}  // namespace

void Histogram::add(double x) {
  ++count_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  if (x >= kTopEdge) {
    ++overflow_;
  } else {
    ++counts_[bucket_of(x)];
  }
}

double Histogram::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::quantile(double q) const {
  AF_CHECK(count_ > 0, "quantile of an empty histogram");
  const double n = static_cast<double>(count_);
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n)));
  std::int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts_[static_cast<std::size_t>(i)];
    if (seen >= rank) return std::clamp(upper_edge(i), min_, max_);
  }
  return max_;  // the rank is among the overflow samples
}

}  // namespace af::sim
