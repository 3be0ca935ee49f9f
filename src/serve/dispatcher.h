// The dispatch layer between request admission and the shard workers — the
// serving control plane's hot path.
//
// Per-shard bounded DRR deques, each crediting a backlogged tenant
// RequestQueue::kDefaultQuantum MACs a round.  submit() routes by
// affinity_hash — tenant identity for GEMMs, model identity for
// inferences — so a tenant's same-mode, same-weight stream (and concurrent
// submissions of one model) lands in ONE deque where the coalescing sweep
// and same-weight fusion find their batches locally, and producers hashing
// to different homes never contend.  A shard whose own deque runs dry
// steals from a random victim: it pops the victim's DRR-selected head and
// assembles the riders from the victim's deque — a WHOLE DRR round moves,
// so per-tenant fairness is the victim's DRR order (the thief only changes
// which engine executes it).  The steal scan prefers victims whose pending
// round is already in the thief's configured pipeline mode, so the stolen
// batch skips the reconfiguration drain.  Rounds shorter than
// max_batch top up with compatible riders from the other deques (each
// charged to its own tenant's deficit).  queue_capacity bounds each deque
// separately: an N-shard dispatcher queues up to N x queue_capacity.
//
// Idle workers park: a worker with nothing to pop or steal sleeps on its
// own slot with no timeout.  An accepted submit signals the home slot's
// worker if it is parked and not yet signalled, otherwise one other
// parked, unsignalled worker (which then steals), so a burst of N submits
// wakes up to N idle workers and an idle server makes no wakeups at all.
// set_live_shards, set_paused(false) and close wake every parked worker.
//
// Scale events: the live shard set is a prefix [0, live) of the slot
// space.  set_live_shards(smaller) retires the top slots and drains their
// deques back into the live queues (rehashed), so no accepted request is
// stranded behind a retired worker; next_batch(shard) returns nullopt for
// a retired shard, which is the worker's signal to exit.  A submission
// that raced a scale-down and landed in a retired deque (after its drain)
// is still served: the steal scan covers every slot, live or not, a
// retiring worker that exits with work still queued passes its wake on,
// and live workers probe the retired slots every 64th dispatch, so the
// orphan is picked up even under sustained saturation.
//
// close() + drain semantics: producers fail fast, workers drain every
// queue (own and victims') before seeing nullopt, so shutdown never drops
// an accepted request.  A paused dispatcher hands out nothing; closing it
// while paused releases the workers WITHOUT draining, leaving the backlog
// for drain_remaining (the crash path).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/queue.h"
#include "serve/request.h"
#include "serve/scheduler.h"

namespace af::serve {

struct DispatcherOptions {
  // Admission bound of each home deque (each is its own backpressure
  // domain).
  std::size_t queue_capacity = 256;
  // Coalescing cap per dispatch; 1 disables batching.
  int max_batch = 8;
  // Byte budget per batch (summed Request::drr_bytes, the projected DRAM
  // traffic); 0 = unlimited.  See RiderFilter.
  std::int64_t max_batch_bytes = 0;
  // Slot space: the most shards the server may ever scale to.
  int max_shards = 1;
  // Initially live prefix [0, live_shards).
  int live_shards = 1;
  // Test-only failpoint hook: when set, it is invoked at named race-prone
  // sites ("submit" before routing a request, "steal" after choosing a
  // victim, "drain" per request while a retiring or banned deque is
  // rehomed, "park" each time a worker is about to sleep) so
  // fault-injection tests can widen race windows with targeted sleeps or
  // count idle wakeups.  Null (the default) costs one branch.
  std::function<void(const char* site)> failpoint;
};

// Outcome of a timed submit_until: routed and queued, still full after the
// wait (the request stays with the caller), or closed for good.
enum class SubmitResult { kAccepted, kWouldBlock, kClosed };

// Routing and batch formation.  Thread safety: submit() from many
// producers, next_batch() from many workers, the control calls
// (set_live_shards, set_banned, set_paused, close) from control threads,
// all concurrently.
class Dispatcher {
 public:
  explicit Dispatcher(const DispatcherOptions& options);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // Routes one request.  Blocks while the home deque is full (admission
  // backpressure); returns false — dropping the request — once closed.
  bool submit(Request r) {
    return submit_until(r, Clock::time_point::max()) ==
           SubmitResult::kAccepted;
  }

  // Timed admission: waits until `deadline` for deque space (a past
  // deadline probes non-blocking, Clock::time_point::max() blocks like
  // submit).  Moves from `r` only on kAccepted — on kWouldBlock/kClosed the
  // request and its promise stay with the caller, who fails it with a
  // typed error (the reject overload policy and client admission timeouts
  // ride on this).
  SubmitResult submit_until(Request& r, Clock::time_point deadline);

  // Blocks (parked) for shard `shard`'s next batch.  Returns nullopt when
  // the shard has been retired by set_live_shards, when the dispatcher is
  // closed AND fully drained, or when it is closed while paused — either
  // way the worker thread exits.  A returned batch may carry
  // deadline-expired requests (Batch::expired) for the worker to fail —
  // possibly with NO serveable requests at all.
  std::optional<Batch> next_batch(int shard);

  // Quarantine support: a banned live shard is skipped by submit routing
  // and its queued backlog is drained back into the healthy set (the
  // retiring-deque drain reused), while the slot itself stays live so its
  // worker can probe for recovery.
  void set_banned(int shard, bool banned);

  // Resizes the live prefix [0, live).  Shrinking drains the retired
  // shards' deques back into the live set before returning.  Must not be
  // called after close().
  void set_live_shards(int live);
  int live_shards() const { return live_.load(std::memory_order_acquire); }

  // The stall failpoint: while paused, next_batch hands out nothing and
  // workers stay parked (queued work sits, admission stays open, deadlines
  // keep running).  set_paused(true) returns only once no worker is still
  // in a scan that began before it, so nothing submitted after it returns
  // is handed out until set_paused(false), which wakes every parked worker.
  void set_paused(bool paused);
  bool paused() const { return paused_.load(std::memory_order_acquire); }

  // Closes admission and wakes every parked worker; workers drain then
  // exit (or exit at once when paused).  Idempotent.
  void close();

  // Requests currently queued across all shards — the autoscaler's
  // queue-pressure signal.
  std::size_t depth() const;

  // Lock-free depth HINT (sums the deques' relaxed approx_size mirrors):
  // the admission path's overload check reads it on every submit, where
  // depth()'s per-deque mutex round-trips would reintroduce the contention
  // the per-shard deques exist to remove.  May lag by an instant.
  std::size_t approx_depth() const;

  // Lock-free backlog-cost HINT: summed Request::drr_cost (MACs) queued
  // across all shards.  The simulated-hardware-pressure twin of
  // approx_depth — feeds the Pressure::backlog_macs term and the fleet
  // router's load reports.
  std::int64_t approx_cost() const;

  // Lock-free backlog-bytes HINT: summed Request::drr_bytes (projected
  // DRAM traffic) queued across all shards — the bandwidth-pressure twin
  // of approx_cost, feeding the Pressure::backlog_bytes term.
  std::int64_t approx_bytes() const;

  // Removes and returns EVERYTHING still queued, across all shards.  The
  // no-loss handoff hook: Server::quiesce calls it after close() so queued
  // work that will never run can be failed with kUnavailable (guaranteed
  // never-executed) and re-admitted elsewhere by the fleet layer.  Must
  // only be called after close() — with admission closed the drain cannot
  // race a successful push, so nothing is left behind.
  std::vector<Request> drain_remaining();

  // Publishes the pipeline mode shard `shard`'s array is currently
  // configured in, so the steal scan can prefer victims whose pending
  // round would skip the thief's reconfiguration drain.
  void set_shard_mode(int shard, int k);

  // Batches obtained by stealing.
  std::int64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot;

  // Affinity routing with quarantine and retry steering (see the .cpp).
  int route(const Request& r) const;
  // One unpaused look for work: the retired-slot probe, the own deque,
  // then the steal scan; nullopt when nothing is queued anywhere.
  std::optional<Batch> scan(int shard, int live_now);
  // Pops `from`'s DRR-selected head and assembles its round, topped up
  // from the other deques; nullopt when `from` is empty right now.
  std::optional<Batch> round_from(int from, bool stolen);
  void top_up(Batch& batch, int swept);
  // Sleeps until signalled; returns at once when there is work (and not
  // paused), the dispatcher closed, or `shard` retired.
  void park(int shard);
  bool has_news(int shard) const;
  // Signals `slot`'s worker if it is parked and not yet signalled.
  bool signal(Slot& slot);
  // An accepted submit's wake: the home worker, else one other parked,
  // unsignalled worker.
  void wake_for(int home);
  void wake_all();
  // Blocking re-submit of a retiring or banned deque's backlog.
  void rehome(int shard);

  const int max_batch_;
  const std::int64_t max_batch_bytes_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<int> live_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> paused_{false};
  // Workers between announcing a scan and finishing its pop (see
  // next_batch); set_paused(true) waits for it to reach 0.
  std::atomic<int> scanning_{0};
  // Workers currently parked: a submit reads it once and skips the wake
  // scan entirely while every worker is busy (the loaded steady state).
  std::atomic<int> parked_{0};
  std::atomic<std::int64_t> steals_{0};
  std::atomic<std::uint64_t> rng_state_;
  const std::function<void(const char*)> failpoint_;
  // Serializes set_live_shards / set_banned / close / drain_remaining
  // (control plane only; never taken on the submit or dispatch hot paths).
  std::mutex control_mutex_;
};

// Submit-side affinity (exposed so tests can predict a request's home
// deque): tenant hash for GEMMs — a tenant's stream coalesces locally —
// and model identity for inferences — concurrent submissions of the same
// model coalesce.
std::size_t affinity_hash(const Request& r);

}  // namespace af::serve
