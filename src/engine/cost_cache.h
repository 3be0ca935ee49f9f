// Sharded, read-mostly memoization of cost-query results behind the
// engine:: facade — the serving hot path's answer to a tiny working set.
//
// On cost-only analytic traffic the closed forms (Eqs. 3-6) are so cheap
// that RE-DERIVING them per request — a fresh per-mode argmin at
// admission, a fresh sweep for the sticky reconfig policy, a fresh
// finalization per evaluate() — dominates wall time, and real streams
// (transformer decode, design-space sweeps, per-layer CNN lowering) hit a
// handful of distinct shapes over and over.  CostCache stores both
// artifacts the path needs:
//
//   estimates  (fingerprint, shape, k) -> CostEstimate
//              The full finalized dense estimate — memory-aware re-timing
//              and DRAM pricing included.
//
//   sweeps     (fingerprint, shape) -> vector<ModeSweepEntry>
//              The optimizer's compute-only per-mode projection (Eq. 6
//              argmin inputs).  Cached separately from estimates because
//              with the memory hierarchy enabled the finalized time
//              includes DMA stalls while mode SELECTION deliberately does
//              not — the two disagree by design and must not share entries.
//
// Invalidation is structural, not epochal: every key carries the owning
// engine's 64-bit cost fingerprint (geometry + supported modes + memory
// knobs + per-mode clock periods + all EnergyParams), so an engine built
// over different wiring can share the same cache object and never read a
// stale entry — changed config or energy params simply hash to keys nobody
// else writes.  clear() exists for tests and explicit resets.
//
// Thread safety: fully internally synchronized.  Keys hash across
// `kShards` independent mutex-guarded maps so concurrent admission threads
// (the contended-submit hot path) rarely touch the same lock; hit/miss
// counters are relaxed atomics.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "arch/optimizer.h"
#include "engine/engine.h"
#include "gemm/reference.h"

namespace af::engine {

class CostCache {
 public:
  CostCache();

  CostCache(const CostCache&) = delete;
  CostCache& operator=(const CostCache&) = delete;

  // Estimate store.  find() counts a hit or a miss; insert() is
  // first-writer-wins (concurrent misses compute identical values, so
  // dropping the second write is harmless).
  std::optional<CostEstimate> find(std::uint64_t fingerprint,
                                   const gemm::GemmShape& shape, int k) const;
  void insert(std::uint64_t fingerprint, const gemm::GemmShape& shape, int k,
              const CostEstimate& estimate);

  // Sweep store (compute-only mode projections, winner flagged).  Values
  // are shared_ptr so a hit is a refcount bump, not a vector copy.
  std::shared_ptr<const std::vector<arch::ModeSweepEntry>> find_sweep(
      std::uint64_t fingerprint, const gemm::GemmShape& shape) const;
  void insert_sweep(
      std::uint64_t fingerprint, const gemm::GemmShape& shape,
      std::shared_ptr<const std::vector<arch::ModeSweepEntry>> sweep);

  // Cumulative lookup counters across both stores (relaxed; serving stats).
  std::int64_t hits() const;
  std::int64_t misses() const;

  // Entries across both stores (test introspection).
  std::int64_t size() const;

 private:
  struct Key {
    std::uint64_t fingerprint = 0;
    std::int64_t m = 0;
    std::int64_t n = 0;
    std::int64_t t = 0;
    int k = 0;  // 0 marks a sweep entry (real modes are >= 1)

    bool operator==(const Key&) const = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, CostEstimate, KeyHash> estimates;
    std::unordered_map<Key, std::shared_ptr<const std::vector<arch::ModeSweepEntry>>,
                       KeyHash>
        sweeps;
  };

  static constexpr std::size_t kShards = 16;

  Shard& shard_for(const Key& key) const;

  mutable std::array<Shard, kShards> shards_;
  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::int64_t> misses_{0};
};

}  // namespace af::engine
