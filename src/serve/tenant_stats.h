// Per-tenant serving accounting: request counts, wall-clock latency and
// queue-wait distributions (one log-bucketed sim::Histogram each: mean
// and max from the samples, p50/p99 that never under-report and
// over-report by at most 1/64), simulated hardware time, attributed
// energy (from the power models' per-run pricing) and MAC volume.
// Thread-safe; shard workers record concurrently, stats() snapshots under
// the same lock.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/stats.h"
#include "util/status.h"

namespace af::serve {

struct TenantSnapshot {
  std::string tenant;
  std::int64_t requests = 0;        // completed (gemm + inference)
  std::int64_t gemm_requests = 0;
  std::int64_t infer_requests = 0;
  std::int64_t macs = 0;            // useful work volume
  // Attributed simulated energy / hardware time.  Both are share-weighted
  // for fused and coalesced runs (a request that rode a shared hardware
  // run is billed its fraction), so summing either column over all tenants
  // reproduces what the shards actually spent.
  double energy_pj = 0.0;
  double sim_time_ps = 0.0;
  // This tenant's fraction of ALL tenants' attributed hardware time (0 when
  // nothing has been served yet; sums to 1 across a snapshot otherwise) —
  // the observable the deficit-round-robin scheduler equalizes for
  // backlogged tenants.
  double served_share = 0.0;
  double mean_latency_ms = 0.0;     // wall-clock, enqueue -> completion
  double max_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double mean_queue_ms = 0.0;       // wall-clock, enqueue -> dispatch
  double max_queue_ms = 0.0;
  // Error/retry/shed accounting (PR 6): failures delivered to this tenant
  // by ErrorCode class, plus resubmissions and degraded-fidelity serves.
  // `requests` above counts only successful completions — a request that
  // was rejected, expired or faulted lands in exactly one row below.
  std::int64_t rejected = 0;   // kOverloaded at admission (reject policy)
  std::int64_t expired = 0;    // kDeadlineExceeded before serving
  std::int64_t faults = 0;     // kEngineFault (and other execution errors)
  std::int64_t retries = 0;    // engine-fault resubmissions to other shards
  std::int64_t degraded = 0;   // served cost-only under the degrade policy
};

class TenantAccountant {
 public:
  void record(const std::string& tenant, bool is_inference,
              double latency_ms, double queue_ms, double energy_pj,
              double sim_time_ps, std::int64_t macs);

  // One failed request delivered to `tenant` with `code` (the class picks
  // the snapshot column: overloaded -> rejected, deadline -> expired,
  // everything else -> faults).
  void record_error(const std::string& tenant, ErrorCode code);
  // One engine-fault resubmission on behalf of `tenant`.
  void record_retry(const std::string& tenant);
  // One request served at degraded fidelity for `tenant`.
  void record_degraded(const std::string& tenant);

  std::vector<TenantSnapshot> snapshot() const;

 private:
  struct Account {
    std::int64_t gemm_requests = 0;
    std::int64_t infer_requests = 0;
    std::int64_t rejected = 0;
    std::int64_t expired = 0;
    std::int64_t faults = 0;
    std::int64_t retries = 0;
    std::int64_t degraded = 0;
    std::int64_t macs = 0;
    double energy_pj = 0.0;
    double sim_time_ps = 0.0;
    sim::Histogram latency_ms;
    sim::Histogram queue_ms;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Account> accounts_;
};

}  // namespace af::serve
