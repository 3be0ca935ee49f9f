#include "engine/cost_cache.h"

#include <utility>

#include "util/rng.h"

namespace af::engine {

CostCache::CostCache() = default;

std::size_t CostCache::KeyHash::operator()(const Key& key) const {
  std::uint64_t h = key.fingerprint;
  h = splitmix64(h ^ static_cast<std::uint64_t>(key.m));
  h = splitmix64(h ^ static_cast<std::uint64_t>(key.n));
  h = splitmix64(h ^ static_cast<std::uint64_t>(key.t));
  h = splitmix64(h ^ static_cast<std::uint64_t>(key.k));
  return static_cast<std::size_t>(h);
}

CostCache::Shard& CostCache::shard_for(const Key& key) const {
  return shards_[KeyHash{}(key) % kShards];
}

std::optional<CostEstimate> CostCache::find(std::uint64_t fingerprint,
                                            const gemm::GemmShape& shape,
                                            int k) const {
  const Key key{fingerprint, shape.m, shape.n, shape.t, k};
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.estimates.find(key);
    if (it != shard.estimates.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void CostCache::insert(std::uint64_t fingerprint,
                       const gemm::GemmShape& shape, int k,
                       const CostEstimate& estimate) {
  const Key key{fingerprint, shape.m, shape.n, shape.t, k};
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.estimates.try_emplace(key, estimate);
}

std::shared_ptr<const std::vector<arch::ModeSweepEntry>> CostCache::find_sweep(
    std::uint64_t fingerprint, const gemm::GemmShape& shape) const {
  const Key key{fingerprint, shape.m, shape.n, shape.t, /*k=*/0};
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.sweeps.find(key);
    if (it != shard.sweeps.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void CostCache::insert_sweep(
    std::uint64_t fingerprint, const gemm::GemmShape& shape,
    std::shared_ptr<const std::vector<arch::ModeSweepEntry>> sweep) {
  const Key key{fingerprint, shape.m, shape.n, shape.t, /*k=*/0};
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.sweeps.try_emplace(key, std::move(sweep));
}

std::int64_t CostCache::hits() const {
  return hits_.load(std::memory_order_relaxed);
}

std::int64_t CostCache::misses() const {
  return misses_.load(std::memory_order_relaxed);
}

std::int64_t CostCache::size() const {
  std::int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += static_cast<std::int64_t>(shard.estimates.size() +
                                       shard.sweeps.size());
  }
  return total;
}

}  // namespace af::engine
