// Pluggable dispatch layer between request admission and the shard
// workers — the serving control plane's hot path.
//
// PR 4 pushed the analytic backend past 100k req/s open-loop, at which
// point the single serve::RequestQueue mutex became the bottleneck: every
// producer thread and every shard worker serialized through one lock (and
// one DRR ring scan).  A Dispatcher decouples that topology from the
// server.  Two implementations ship behind a string-keyed registry
// mirroring engine::make:
//
//   "global"    One DRR queue shared by every shard — exactly the PR-4
//               data path, kept as the semantics oracle the stealing
//               dispatcher is tested against.
//
//   "stealing"  Per-shard bounded DRR deques.  submit() routes by
//               affinity_hash — tenant identity for GEMMs, (model, slice)
//               for inference slices — so a tenant's same-mode, same-weight
//               stream lands in ONE deque where the coalescing sweep and
//               same-weight fusion still find their batches locally, and
//               producers hashing to different homes never contend.  A
//               shard whose own deque runs dry steals from a random
//               victim: it pops the victim's DRR-selected head and
//               assembles the riders from the victim's deque — a WHOLE
//               DRR round moves, so per-tenant served_share fairness is
//               preserved globally (the victim's DRR chose whose turn it
//               was; the thief only changes which engine executes it).
//               Rounds shorter than max_batch top up with compatible
//               riders from the other deques (each charged to its own
//               tenant's deficit), so partitioning never costs batching
//               efficiency against the pooled global queue.
//
// Scale events: the live shard set is a prefix [0, live) of the slot
// space.  set_live_shards(smaller) retires the top slots and drains their
// deques back into the live queues (rehashed), so no accepted request is
// stranded behind a parked worker; next_batch(shard) returns nullopt for a
// retired shard, which is the worker's signal to exit.  A submission that
// raced a scale-down and landed in a retired deque (after its drain) is
// still served: the steal scan covers every slot, live or not, and live
// workers additionally probe the retired slots every 64th dispatch, so
// the orphan is picked up even under sustained saturation when no deque
// ever runs dry.
//
// close() + drain semantics match RequestQueue: producers fail fast,
// workers drain every queue (own and victims') before seeing nullopt, so
// shutdown never drops an accepted request.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/queue.h"
#include "serve/request.h"
#include "serve/scheduler.h"

namespace af::serve {

struct DispatcherOptions {
  // Admission bound.  "global" applies it to the one shared queue;
  // "stealing" applies it per home deque (each deque is its own
  // backpressure domain — see the README migration notes).
  std::size_t queue_capacity = 256;
  std::int64_t drr_quantum = RequestQueue::kDefaultQuantum;
  // Deadline-weighted DRR (see the RequestQueue constructor): requests
  // within `drr_deadline_urgent_ms` of their deadline earn their tenant a
  // multiplied quantum, capped at `drr_deadline_weight_cap` x the fair
  // share.  0 (the default) disables the weighting.
  std::int64_t drr_deadline_urgent_ms = 0;
  std::int64_t drr_deadline_weight_cap = 8;
  // Coalescing cap per dispatch; 1 disables batching.
  int max_batch = 8;
  // Byte budget per batch (summed Request::drr_bytes, the projected DRAM
  // traffic); 0 = unlimited.  See assemble_batch.
  std::int64_t max_batch_bytes = 0;
  // Slot space: the most shards the server may ever scale to.
  int max_shards = 1;
  // Initially live prefix [0, live_shards).
  int live_shards = 1;
  // False promises set_live_shards will never be called (a fixed pool, no
  // autoscaler): the global dispatcher then parks idle workers fully
  // blocking in pop() instead of the poll loop a retirement check needs —
  // an idle default-configured server makes zero wakeups.
  bool can_scale = true;
  // Seed of the stealing dispatcher's victim randomization.
  std::uint64_t steal_seed = 0x517cc1b727220a95ULL;
  // Test-only failpoint hook: when set, the stealing dispatcher invokes it
  // at named race-prone sites ("submit" before routing a request, "steal"
  // after choosing a victim, "drain" per request while a retiring or
  // banned deque is rehomed) so fault-injection tests can widen race
  // windows with targeted sleeps.  Null (the default) costs one branch.
  std::function<void(const char* site)> failpoint;
};

// Outcome of a timed submit_for: routed and queued, still full after the
// wait (the request stays with the caller), or closed for good.
enum class SubmitResult { kAccepted, kWouldBlock, kClosed };

// Routing and batch formation policy.  Thread safety: submit() from many
// producers, next_batch() from many workers, set_live_shards()/close()
// from one control thread, all concurrently.
class Dispatcher {
 public:
  Dispatcher() = default;
  virtual ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // Registry key ("global", "stealing").
  virtual const std::string& name() const = 0;

  // Routes one request.  Blocks while the target queue is full (admission
  // backpressure); returns false — dropping the request — once closed.
  bool submit(Request r) {
    return submit_for(r, std::chrono::microseconds::max()) ==
           SubmitResult::kAccepted;
  }

  // Timed admission: waits up to `timeout` for queue space (0 probes
  // non-blocking, microseconds::max() blocks like submit).  Moves from `r`
  // only on kAccepted — on kWouldBlock/kClosed the request and its promise
  // stay with the caller, who fails it with a typed error (the reject
  // overload policy and client admission timeouts ride on this).
  virtual SubmitResult submit_for(Request& r,
                                  std::chrono::microseconds timeout) = 0;

  // Blocks for shard `shard`'s next batch.  Returns nullopt when the shard
  // has been retired by set_live_shards, or when the dispatcher is closed
  // AND fully drained — either way the worker thread exits.  A returned
  // batch may carry deadline-expired requests (Batch::expired) for the
  // worker to fail — possibly with NO serveable requests at all.
  virtual std::optional<Batch> next_batch(int shard) = 0;

  // Quarantine support: a banned live shard is skipped by submit routing
  // and its queued backlog is drained back into the healthy set (the
  // retiring-deque drain reused), while the slot itself stays live so its
  // worker can probe for recovery.  Default no-op: the global dispatcher
  // has one shared queue and nothing to route around — its quarantined
  // worker simply stops calling next_batch.
  virtual void set_banned(int shard, bool banned) {
    (void)shard;
    (void)banned;
  }

  // Resizes the live prefix [0, live).  Shrinking drains the retired
  // shards' deques back into the live set before returning.  Must not be
  // called after close().
  virtual void set_live_shards(int live) = 0;
  virtual int live_shards() const = 0;

  // Closes admission; workers drain then exit.  Idempotent.
  virtual void close() = 0;

  // Requests currently queued across all shards — the autoscaler's
  // queue-pressure signal.
  virtual std::size_t depth() const = 0;

  // Lock-free depth HINT (sums the queues' relaxed approx_size mirrors):
  // the admission path's overload check reads it on every submit, where
  // depth()'s per-queue mutex round-trips would reintroduce the contention
  // the stealing dispatcher exists to remove.  May lag by an instant.
  virtual std::size_t approx_depth() const { return depth(); }

  // Lock-free backlog-cost HINT: summed Request::drr_cost (MACs) queued
  // across all shards, from the queues' relaxed approx_cost mirrors.  The
  // simulated-hardware-pressure twin of approx_depth — feeds the
  // Pressure::backlog_macs term and the fleet router's load reports.
  virtual std::int64_t approx_cost() const = 0;

  // Lock-free backlog-bytes HINT: summed Request::drr_bytes (projected
  // DRAM traffic) queued across all shards — the bandwidth-pressure twin
  // of approx_cost, feeding the Pressure::backlog_bytes term.
  virtual std::int64_t approx_bytes() const = 0;

  // Removes and returns EVERYTHING still queued, across all shards.  The
  // no-loss handoff hook: Server::quiesce calls it after close() so queued
  // work that will never run can be failed with kUnavailable (guaranteed
  // never-executed) and re-admitted elsewhere by the fleet layer.  Must
  // only be called after close() — with admission closed the drain cannot
  // race a successful push, so nothing is left behind.
  virtual std::vector<Request> drain_remaining() = 0;

  // Publishes the pipeline mode shard `shard`'s array is currently
  // configured in, so a locality-aware steal scan can prefer victims whose
  // pending round would skip the thief's reconfiguration drain.  Default
  // no-op: the global dispatcher has one queue and no victim choice.
  virtual void set_shard_mode(int shard, int k) {
    (void)shard;
    (void)k;
  }

  // Batches obtained by stealing (0 on dispatchers that never steal).
  virtual std::int64_t steals() const { return 0; }
};

// Submit-side affinity of the stealing dispatcher (exposed so tests can
// predict a request's home deque): tenant hash for GEMMs — a tenant's
// stream coalesces locally — and (model identity, slice index) for
// inference slices — concurrent submissions of the same model coalesce,
// while the slices of one inference spread across shards.
std::size_t affinity_hash(const Request& r);

// String-keyed factory — the one place dispatcher names resolve.  Like
// engine::make, the names returned by registered_dispatchers() are a
// public contract: the README's dispatcher table must list exactly these
// (CI diffs the two).
std::unique_ptr<Dispatcher> make_dispatcher(
    const std::string& name, const DispatcherOptions& options = {});
std::vector<std::string> registered_dispatchers();
// One-line human description per dispatcher (the README matrix source).
std::string dispatcher_description(const std::string& name);
// The registry keys quoted and comma-joined — the one formatter behind
// unknown-dispatcher error messages (mirrors engine::registered_backend_list).
std::string registered_dispatcher_list();

}  // namespace af::serve
