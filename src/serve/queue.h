// Bounded MPMC request queue with DEFICIT-ROUND-ROBIN tenant fairness:
// many client threads push, shard workers pop.  The bound is the server's
// admission backpressure — a full queue blocks producers instead of
// growing without limit under overload.  The consumer side never blocks:
// try_pop() returns nullopt on an empty queue, and idle workers park in
// the Dispatcher (serve/dispatcher.h), not here.
//
// Internally the queue keeps one FIFO per tenant plus a ring of backlogged
// tenants.  try_pop() runs classic DRR over the ring: each tenant carries
// a deficit counter in cost units (Request::drr_cost, the request's MAC
// volume); visiting a tenant whose head request exceeds its deficit
// credits one quantum and moves on, and a tenant whose deficit covers its
// head is served (deficit decremented by the true cost).  Long-run, every
// backlogged tenant receives an equal share of cost units regardless of
// its request sizes — a tenant flooding huge GEMMs can no longer starve a
// tenant of small ones, which under the old FIFO-head scheduler waited
// behind the entire flood.  Within one tenant, order stays FIFO.
//
// pop_all_if(pred, max) — the batching scheduler's coalescing sweep —
// removes up to `max` requests matching a predicate in ONE pass over the
// backlog, scanning tenants in ring order starting from the tenant
// try_pop() last served and each tenant front to back.  A request taken
// this way is charged to ITS OWN tenant's deficit (which may go negative:
// the tenant borrowed against future rounds to ride a batch that was
// dispatching anyway), so coalescing accelerates batches without
// distorting long-run fairness.  A tenant's deficit resets to zero when
// its backlog empties — fairness applies to backlogged tenants only, per
// the classic DRR formulation.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/request.h"

namespace af::serve {

// Result of a timed admission attempt (push_until).  The request is consumed
// only on kAccepted; on kFull/kClosed it stays with the caller, promise
// intact, so the caller can fail it with a typed error.
enum class PushResult { kAccepted, kFull, kClosed };

class RequestQueue {
 public:
  // `quantum` is the cost credit (in Request::drr_cost units, i.e. MACs) a
  // backlogged tenant receives per DRR round.  Any positive value yields
  // equal long-run shares; smaller quanta interleave tenants more finely,
  // larger quanta allow longer per-tenant bursts.
  static constexpr std::int64_t kDefaultQuantum = 1 << 20;

  explicit RequestQueue(std::size_t capacity,
                        std::int64_t quantum = kDefaultQuantum);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  // Blocks while the queue is full.  Returns false (dropping the request)
  // once the queue is closed.
  bool push(Request r);

  // Timed admission: waits until `deadline` for space (a past deadline is
  // a non-blocking probe; Clock::time_point::max() blocks like push).
  // Moves from `r` only on kAccepted — on kFull/kClosed the request (and
  // its promise) stays valid with the caller.
  PushResult push_until(Request& r, Clock::time_point deadline);

  // The DRR-selected request (see file comment), or nullopt when nothing
  // is queued right now.  Never blocks: the dispatcher probes its own
  // deque (or a victim's) and parks elsewhere when every probe comes up
  // empty.
  std::optional<Request> try_pop();

  // One-pass coalescing sweep: removes up to `max_take` requests satisfying
  // `pred` in a single scan (tenants in ring order from the current DRR
  // position, FIFO within a tenant).  Each taken request is charged to its
  // own tenant's deficit.
  std::vector<Request> pop_all_if(
      const std::function<bool(const Request&)>& pred, int max_take);

  // Removes and returns the ENTIRE backlog (tenant ring order, FIFO within
  // each tenant), resetting all DRR state.  Used when a shard's queue is
  // drained back into the steal pool before the shard retires.
  std::vector<Request> drain_all();

  // Reaper sweep: removes and returns every queued request whose deadline
  // is at or before `now` (tenant ring order, FIFO within a tenant).
  // Expired requests are NOT charged to their tenants' deficits — they
  // received no service.  Cost when no queued request carries a deadline:
  // one relaxed atomic load (the earliest-deadline hint below), so
  // deadline-free traffic pays nothing for the sweep.
  std::vector<Request> remove_expired(Clock::time_point now);

  // Closing wakes every blocked producer (push fails); queued requests stay
  // poppable.  Idempotent.
  void close();

  std::size_t size() const;
  bool closed() const;

  // Lock-free size HINT (relaxed atomic mirror of size(), updated inside
  // the critical sections): the work-stealing dispatcher's victim scan
  // reads it to skip empty deques without touching their mutexes.  May
  // lag a concurrent push/pop by an instant — callers must treat a zero
  // as "probably empty, probe again later", never as a drained guarantee
  // (shutdown paths use the exact size()).
  std::size_t approx_size() const {
    return approx_size_.load(std::memory_order_relaxed);
  }

  // Lock-free BACKLOG-COST hint: the summed Request::drr_cost (MACs) of
  // everything currently queued, mirrored like approx_size.  This is the
  // simulated-hardware-pressure signal — two queues of equal depth can
  // differ by orders of magnitude in how long a shard needs to drain them —
  // consumed by the backlog_cost autoscale signal and exported through
  // ServerStats for the fleet router's power-of-two-choices placement.
  std::int64_t approx_cost() const {
    return approx_cost_.load(std::memory_order_relaxed);
  }

  // Lock-free BACKLOG-BYTES hint: the summed Request::drr_bytes (projected
  // DRAM traffic) of everything currently queued, mirrored like
  // approx_cost.  The bandwidth-pressure signal: consumed by the
  // backlog_bytes autoscale signal and the byte-budgeted batch assembly —
  // a backlog can be compute-light yet saturate the DRAM pins.
  std::int64_t approx_bytes() const {
    return approx_bytes_.load(std::memory_order_relaxed);
  }

  // Locality hint for the stealing dispatcher's victim scan: the
  // admission-decided pipeline mode of the request the DRR position would
  // serve next (nullopt when empty or when the next request is not a GEMM:
  // an inference picks a mode per layer, a cost batch none).  A HINT, not a contract —
  // the actual pop may serve a different tenant once deficits are
  // consulted — good enough to prefer a victim whose stolen round skips
  // the mode-switch drain.
  std::optional<int> peek_mode() const;

  // Current deficit of a tenant (0 when unknown / not backlogged) — test
  // and debugging introspection.
  std::int64_t deficit(const std::string& tenant) const;

 private:
  struct TenantQueue {
    std::deque<Request> items;
    std::int64_t deficit = 0;
    // Quantum already credited for the DRR pointer's current stay on this
    // tenant; cleared whenever the pointer moves on.  Guarantees exactly
    // one credit per round-robin visit (the classic DRR discipline).
    bool credited = false;
  };

  // Serves tenants_[ring_[ring_pos_]]'s head request; caller holds the
  // lock and guarantees the tenant is backlogged.
  Request take_front_locked();
  // The DRR selection loop behind try_pop(); caller holds the lock and
  // guarantees total_ > 0.
  Request pop_drr_locked();
  // Removes `tenant` from the ring if its backlog emptied, resetting its
  // deficit (DRR forgets non-backlogged flows, debts included).
  void retire_if_empty_locked(const std::string& tenant);

  // Recomputes the earliest-deadline hint from the current backlog; caller
  // holds the lock.
  void refresh_deadline_hint_locked();

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::map<std::string, TenantQueue> tenants_;
  // Earliest queued deadline in ns-since-epoch (int64 max = none): the
  // reaper's lock-free fast path.  A monotone lower bound between sweeps —
  // push tightens it, remove_expired recomputes it exactly.
  std::atomic<std::int64_t> earliest_deadline_ns_{
      std::numeric_limits<std::int64_t>::max()};
  std::vector<std::string> ring_;  // backlogged tenants, arrival order
  std::size_t ring_pos_ = 0;       // DRR position into ring_
  std::size_t total_ = 0;          // queued requests across all tenants
  std::int64_t cost_total_ = 0;    // summed drr_cost across all tenants
  std::int64_t bytes_total_ = 0;   // summed drr_bytes across all tenants
  std::atomic<std::size_t> approx_size_{0};  // lock-free mirror of total_
  std::atomic<std::int64_t> approx_cost_{0};  // lock-free mirror of cost_total_
  std::atomic<std::int64_t> approx_bytes_{0};  // mirror of bytes_total_
  const std::size_t capacity_;
  const std::int64_t quantum_;
  bool closed_ = false;
};

}  // namespace af::serve
