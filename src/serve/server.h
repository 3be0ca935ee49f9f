// Multi-tenant batch serving over a pool of ArrayFlex execution engines.
//
//   clients ──submit──▶ Dispatcher ──────────────────────────▶ shard workers
//                      (per-shard DRR deques, affinity        (one thread +
//                       routing, work stealing, batch          one engine
//                       coalescing; see serve/dispatcher.h)    each)
//
// The Server owns up to max_shards shards, each wrapping one
// engine::Engine (ServerOptions::backend picks the fidelity: "analytic"
// closed-form cost models by default — orders of magnitude more
// requests/s — or "cycle" for full cycle-accurate simulation; both return
// bit-identical outputs and exactly equal cycle/activity/energy numbers, a
// contract pinned by tests/engine_test.cpp).  Each shard carries its own
// pipeline-mode state (the paper's configurable transparent pipelining:
// switching a shard between modes drains the array, so the dispatcher
// batches same-mode work and the shard accounts every reconfiguration).
// Client threads submit GEMMs (activations against shared stationary
// weights) or whole nn::Model inferences and block on the returned future;
// one shard answers an inference with one InferenceRunner::run, so its
// report is bit-identical to a direct run on one array.
//
// Dispatch: one serve::Dispatcher — per-shard DRR deques, tenant/model
// submit affinity, rand-victim stealing of whole DRR rounds that prefers
// victims already in the thief's pipeline mode, retry steering away from a
// faulted shard, quarantine drains, and idle workers parked without a
// timeout (see serve/dispatcher.h).
//
// Autoscaling: with min_shards < max_shards the server runs a
// queue-pressure autoscaler — a control thread building one Pressure
// sample every kControlIntervalMs, growing the live shard set when the
// sample is hot() against grow_at for kGrowPatience consecutive ticks and
// shrinking it when it is cool() against shrink_at for kShrinkPatience
// ticks (hysteresis: two util::Streaks that reset each other, so a
// square-wave load cannot flap the pool).  Growing a shard acquires its
// engine through the server's EngineBuilder; shrinking drains the shard's
// deque back into the steal pool, joins the worker mid-flight work
// included, then releases the engine — no accepted request is ever
// dropped or double-served across a scale event (pinned by
// tests/serve_test.cpp).
//
// Audit mode: with audit_fraction > 0 (and a non-measuring backend), each
// shard deterministically replays that fraction of its fused GEMM runs on
// a cycle-accurate audit engine and cross-checks — outputs bit-exact,
// cycles / ActivityCounters / energy exactly equal.  Mismatches are
// counted per shard (ShardSnapshot::audit_mismatches).  Individual
// requests may also pin their fidelity: submit_gemm's `backend` override
// routes one request to any registered engine, validated at admission.
//
// Simulation threading: all shards share ONE optional util::ThreadPool
// (ServerOptions::sim_threads), injected into every engine (a runner
// works on its engine's pool) — never a pool per component, so an S-shard
// server runs at most live_shards worker threads + sim_threads pool
// threads regardless of nesting (see the shared-pool contract in
// arch/array.h).
//
// Accounting: per-tenant latency/queue-wait percentiles / energy / MACs /
// served share via TenantAccountant, per-shard utilization via
// ShardSnapshot, dispatcher steals and scale events via ServerStats.
// Every latency distribution (the tenants' and the control thread's wait
// window) is a log-bucketed sim::Histogram: its percentiles never
// under-report and over-report by at most 1/64.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "arch/config.h"
#include "arch/power_model.h"
#include "engine/engine.h"
#include "serve/batch_slot.h"
#include "serve/dispatcher.h"
#include "serve/queue.h"
#include "serve/reconfig.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "serve/tenant_stats.h"
#include "sim/stats.h"
#include "util/hysteresis.h"
#include "util/status.h"

namespace af::util {
class ThreadPool;
}

namespace af::serve {

// One queue-pressure sample, every term per live shard: dispatcher depth
// (requests), the p99 enqueue->dispatch wait over the last control window
// (ms), queued simulated work (MACs) and queued projected DRAM traffic
// (bytes).  The same struct is each consumer's threshold set, compared
// through hot()/cool(); a limit of 0 switches its term off.
struct Pressure {
  double depth = 0.0;
  double wait_p99_ms = 0.0;
  double backlog_macs = 0.0;
  double backlog_bytes = 0.0;
};

// True when any enabled term of `p` is at or above its limit in `at`.
bool hot(const Pressure& p, const Pressure& at);
// True when every enabled term of `p` is at or below its limit in `at`.
bool cool(const Pressure& p, const Pressure& at);

struct ServerOptions {
  int num_shards = 2;
  // Engine backend each shard serves with (engine::make registry key).
  // "analytic" trades cycle-by-cycle measurement for orders-of-magnitude
  // throughput at identical numbers; "cycle" is ground-truth simulation.
  std::string backend = "analytic";
  // Fraction of fused GEMM runs to replay on a cycle-accurate audit engine
  // and cross-check (0 disables; ignored when the serving backend already
  // measures).  Sampling is deterministic per shard: every time the
  // accumulated fraction crosses 1, the next fused run is audited.
  double audit_fraction = 0.0;
  // Coalescing cap per dispatch; 1 disables batching entirely.
  int max_batch = 8;
  // Admission bound PER HOME DEQUE: submit blocks once the request's home
  // deque holds this many requests (each deque is its own backpressure
  // domain), so an N-shard server queues up to N x queue_capacity.
  std::size_t queue_capacity = 256;
  // Byte budget per coalesced batch (summed projected DRAM traffic,
  // Request::drr_bytes); 0 = unlimited.  With the memory hierarchy enabled
  // a fused run's DMA stream scales with its footprint, so this keeps one
  // batch from parking the array behind a DRAM transfer longer than the
  // latency SLO.  See serve::assemble_batch.
  std::int64_t max_batch_bytes = 0;
  // Shared simulation pool threads; 1 (default) keeps every shard's
  // engine serial (parallelism then comes from the shards themselves),
  // 0 means all hardware threads — the repo-wide num_threads convention.
  int sim_threads = 1;
  // Cycles to drain + reconfigure a shard between pipeline modes; -1 means
  // rows + cols of the shard config (full pipeline flush).
  std::int64_t reconfig_cycles = -1;
  // Which pipeline mode an optimizer-choice GEMM (SubmitOptions::k == 0) is
  // stamped with at admission (serve/reconfig.h; engine_info
  // --reconfig-policies lists the registry): "argmin" is the per-request
  // Eq. 6 optimum — today's behaviour — while "sticky" holds the served
  // stream's mode until the accumulated win of switching exceeds
  // reconfig_switch_margin x the drain cost, amortizing reconfiguration
  // across prefill/decode-style mode-mixed traffic.  Explicit-k submissions
  // bypass the policy entirely.
  std::string reconfig_policy = "argmin";
  double reconfig_switch_margin = 2.0;
  arch::EnergyParams energy = arch::EnergyParams::generic28nm();

  // --- autoscaling ---------------------------------------------------------
  // Live-shard bounds; 0 means num_shards, so by default the pool is fixed
  // and no autoscaler thread runs.  Must satisfy
  // 1 <= min_shards <= num_shards <= max_shards; num_shards is the
  // INITIAL live count.
  int min_shards = 0;
  int max_shards = 0;
  // Grow one shard when hot(sample, grow_at) for kGrowPatience consecutive
  // control ticks.  The default listens to queue depth and the wall-clock
  // p99 wait.  A "cycle" pool, whose waits reflect simulation speed rather
  // than hardware pressure, scales on queued MACs instead ({4, 0, 4e6, 0});
  // a bandwidth-bound pool on queued DRAM bytes ({4, 0, 0, 16e6}).
  Pressure grow_at{4.0, 5.0, 0.0, 0.0};
  // Shrink one shard when the sample is not hot against grow_at and is
  // cool(sample, shrink_at) for kShrinkPatience consecutive ticks.  The gap
  // between the two bands is the hysteresis dead zone, so every term
  // enabled in both must sit strictly lower here.
  Pressure shrink_at{0.5, 1.0, 0.0, 0.0};

  // --- robustness: overload policy, retry, quarantine (PR 6) ---------------
  // What admission does when the server is overloaded (see overload_at).
  // Registry names, drift-checked against the README:
  //   "block"    today's behaviour (the oracle): submit blocks on the full
  //              queue until space frees — latency unbounded under
  //              sustained overload.
  //   "reject"   fail fast: submit throws af::Error(kOverloaded) while the
  //              pressure lasts; admitted requests keep bounded waits.
  //   "degrade"  admit everything, but serve GEMMs cost-only on the shard
  //              default engine (no output, per-request fidelity override
  //              dropped) and shed the sampled audit fraction while the
  //              pressure lasts; full fidelity resumes when the window
  //              clears.
  std::string overload_policy = "block";
  // Overload limits.  The control thread's latch turns on at the first tick
  // with hot(sample, overload_at) and off after two consecutive ticks
  // cool() against half of overload_at; admission also trips on hot() over
  // the dispatcher's lock-free mirrors (wait term 0 — the window belongs to
  // the control thread), so a burst cannot outrun the tick.  The backlog
  // terms are off by default; with the memory hierarchy enabled, an
  // overload can be bandwidth-borne — shallow queues of huge-footprint
  // GEMMs — which depth and wait both under-report.
  Pressure overload_at{16.0, 50.0, 0.0, 0.0};
  // Engine-fault retry budget per request: a request whose shard engine
  // threw kEngineFault is resubmitted to a different shard up to this many
  // times with capped exponential backoff.  0 = fail on the first fault.
  int max_retries = 0;
  // Consecutive engine faults on one shard before it is quarantined —
  // banned from submit routing, its deque drained to healthy shards, its
  // worker probing for recovery instead of serving (0 = never quarantine):
  // each probe rebuilds the shard's engine and runs a tiny GEMM; success
  // rejoins the pool.
  int quarantine_after_faults = 0;
  // Fault-injection knobs forwarded to every shard engine the server
  // builds — only meaningful with backend = "chaos" (the defaults inject
  // nothing).  A quarantine recovery probe rebuilds the engine, which
  // restarts the chaos schedule from run 1 — how recovery succeeds against
  // a deterministic throw_every_n engine.
  engine::ChaosOptions chaos;
};

// Fixed cadences.  The control thread builds one Pressure sample every
// kControlIntervalMs for the autoscaler and the overload latch; the pool
// moves one shard after kGrowPatience hot or kShrinkPatience cool ticks.
// A retry waits kRetryBackoffBaseMs x 2^attempts, at most
// kRetryBackoffMaxMs; a quarantined shard probes every
// kQuarantineProbeIntervalMs.
inline constexpr double kControlIntervalMs = 10.0;
inline constexpr int kGrowPatience = 2;
inline constexpr int kShrinkPatience = 8;
inline constexpr double kRetryBackoffBaseMs = 0.1;
inline constexpr double kRetryBackoffMaxMs = 5.0;
inline constexpr double kQuarantineProbeIntervalMs = 5.0;

// Overload-policy registry (mirrors the engine name contract:
// the README's policy matrix must list exactly these names — ctest
// readme_registries diffs the two).
enum class OverloadPolicy { kBlock, kReject, kDegrade };
OverloadPolicy parse_overload_policy(const std::string& name);
std::vector<std::string> overload_policy_names();
// One-line human description per policy (the README matrix source).
std::string overload_policy_description(const std::string& name);

// Per-submission knobs of every submit entry point (Server and Fleet); a
// default-constructed SubmitOptions is the classic blocking submit.
struct SubmitOptions {
  int k = 0;                 // pipeline mode (0 = optimizer's choice)
  bool want_output = true;   // false = cost-only traffic
  std::string backend;       // per-request engine override ("" = shard's)
  // Wall-clock budget from submission; 0 = none, and so is a budget past
  // what the steady clock can represent (+inf included; see
  // serve::deadline_after).  An overdue request is failed with
  // af::Error(kDeadlineExceeded) — reaped while queued by the dispatcher
  // sweep, or at the shard right before execution.
  double deadline_ms = 0.0;
  // How long submit may block on a full queue before failing with
  // kOverloaded: < 0 = wait forever (the classic blocking submit), and so
  // does a wait past what the steady clock can represent; 0 = never
  // block, > 0 = bounded wait; NaN is rejected.  Independent of the
  // overload POLICY check, which fires before the queue is even tried.
  double admission_timeout_ms = -1.0;
};

struct ShardSnapshot {
  int shard = 0;
  bool live = false;               // currently in the serving set
  bool quarantined = false;        // banned from routing, probing recovery
  std::string backend;             // engine that served this shard's work
  std::int64_t batches = 0;        // dispatches executed
  std::int64_t requests = 0;       // requests served (incl. coalesced)
  std::int64_t fused_runs = 0;     // hardware GEMM runs after fusion
  std::int64_t mode_switches = 0;  // reconfigurations between modes
  // Stolen batches that arrived already in this shard's configured mode —
  // the locality-aware steal scan's first pass found a same-mode victim,
  // so the batch ran without the reconfiguration drain.
  std::int64_t steal_drains_avoided = 0;
  std::int64_t engine_faults = 0;  // engine throws observed on this shard
  std::int64_t audit_runs = 0;     // fused runs replayed cycle-accurately
  std::int64_t audit_mismatches = 0;  // replays disagreeing with the serve run
  double busy_time_ps = 0.0;       // simulated execution time
  double energy_pj = 0.0;          // simulated energy of useful work
  double reconfig_time_ps = 0.0;   // simulated drain/reconfigure time
  double reconfig_energy_pj = 0.0; // leakage burned while reconfiguring
  std::map<int, double> busy_ps_by_mode;
  int current_k = 0;               // 0 = not in a uniform GEMM mode
};

struct ServerStats {
  std::int64_t submitted = 0;  // logical requests accepted
  std::int64_t completed = 0;  // logical requests fulfilled
  int live_shards = 0;         // current serving set size
  std::int64_t steals = 0;     // batches obtained by work stealing
  std::int64_t scale_ups = 0;  // shards added by the autoscaler
  std::int64_t scale_downs = 0;  // shards retired by the autoscaler
  // --- robustness accounting (every failed request lands in exactly one
  // bucket; submitted == completed always balances, failures included).
  // rejected, expired and unserved count logical requests, like submitted
  // and completed: a batch counts its shapes, a GEMM or inference one. ----
  std::string overload_policy;   // policy registry key
  bool overloaded = false;       // windowed overload signal, now
  std::int64_t rejected = 0;     // admissions refused (kOverloaded)
  std::int64_t expired = 0;      // deadlines missed (kDeadlineExceeded)
  std::int64_t engine_faults = 0;  // engine throws observed across shards
  std::int64_t retries = 0;      // fault resubmissions to another shard
  std::int64_t quarantines = 0;  // shards pulled for consecutive faults
  std::int64_t degraded = 0;     // requests served cost-only under pressure
  // Requests still queued when quiesce() killed the server, failed with
  // kUnavailable (never executed — safe for a fleet to re-admit elsewhere).
  std::int64_t unserved = 0;
  // Queued simulated work right now, in MACs (the dispatcher's lock-free
  // backlog-cost mirror) — the fleet router's load signal.
  std::int64_t backlog_macs = 0;
  // Queued projected DRAM traffic right now, in bytes (the dispatcher's
  // lock-free backlog-bytes mirror) — the bandwidth-pressure twin.
  std::int64_t backlog_bytes = 0;
  std::int64_t promise_double_sets = 0;  // broken-promise bugs caught (== 0)
  // --- cost memoization (engine/cost_cache.h) -------------------------------
  // Hits and misses of the server-wide CostEstimate cache, shared by the
  // admission argmin/sweep, every shard engine's evaluate paths, and the
  // batched cost API.  A hit answers from the sharded map; a miss pays the
  // full closed-form finalization once and publishes it.
  std::int64_t cost_cache_hits = 0;
  std::int64_t cost_cache_misses = 0;
  // --- runtime reconfiguration (serve/reconfig.h) --------------------------
  std::string reconfig_policy;   // policy registry key
  // Stream-mode moves the admission policy decided on (each one costs the
  // executing shard a drain when its array was configured differently).
  // Both counters stay 0 under "argmin": the default keeps the historical
  // lock-free admission path and never consults the policy state machine.
  std::int64_t reconfig_stream_switches = 0;
  // Requests held on the stream mode AGAINST their own per-request argmin —
  // the drains the "sticky" policy declined to pay (always 0 for "argmin").
  std::int64_t reconfig_holds = 0;
  // One snapshot per SLOT (max_shards entries): retired slots keep their
  // history with live == false.
  std::vector<ShardSnapshot> shards;
  std::vector<TenantSnapshot> tenants;

  std::int64_t audit_runs() const;
  std::int64_t audit_mismatches() const;
};

class Server {
 public:
  // `shard_config` describes one shard's array; its SimOptions thread count
  // is ignored (the server controls simulation threading via options).
  // `on_settle`, when set, is called once after every promise or batch slot
  // the server settles, with a value or an error, on the settling thread (a
  // shard worker, or the caller of quiesce); it must not throw or block.
  // fleet::Fleet wakes the server's collector with it.
  explicit Server(const arch::ArrayConfig& shard_config,
                  ServerOptions options = {},
                  std::function<void()> on_settle = {});
  ~Server();  // drains accepted work, then stops the shards

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // X = a x *b in mode submit.k (0 = per-request optimizer choice).  `b` is
  // the shared stationary weight matrix — requests naming the same matrix
  // (by pointer) with equal shapes and modes are fused into one hardware
  // run.  submit.want_output = false marks cost-estimation traffic: the
  // result's cycles/time/energy are exact but `out` comes back empty, and
  // on the analytic backend the operands are never even read — the
  // cheapest way to price millions of GEMMs.  submit.backend pins THIS
  // request to a specific registered engine regardless of the shard
  // default — fidelity routing per submission, layered on top of audit
  // sampling.  Deadline and bounded admission wait as in SubmitOptions; by
  // default submit blocks while the queue is full.
  // Throws af::Error(kInvalidArgument) for a malformed request (operand
  // shapes, an unsupported mode, an unknown backend — listed with the
  // registry), kOverloaded when the "reject" policy sheds the request or
  // the admission timeout elapses on a full queue, and kShutdown after
  // shutdown.
  std::future<GemmResult> submit_gemm(const std::string& tenant,
                                      gemm::Mat32 a,
                                      std::shared_ptr<const gemm::Mat32> b,
                                      const SubmitOptions& submit = {});

  // Batched cost queries: prices every shape in one call — one admission
  // check, one queue hop, one pooled completion slot for the whole batch —
  // and the shard answers through Engine::evaluate_batch (vectorized
  // closed forms + the shared CostEstimate cache) on every backend — a
  // "cycle" shard simulates nothing for it.  Results are EXACTLY
  // equal to a cost-only submit_gemm ({.want_output = false}) per shape,
  // in submission order; submit.k = 0 resolves each shape's mode by the
  // Eq. 6 argmin.
  // Each shape counts as one logical request in ServerStats (submitted/
  // completed move by shapes.size()).  SubmitOptions::want_output is
  // ignored (the batched path is cost-only by construction); deadline,
  // admission timeout, retries and the backend override apply to the
  // batch as a unit, except that a request whose own shapes fail the
  // engine's validation fails alone.  Throws like submit_gemm; BatchTicket::get() blocks
  // for the estimates and rethrows a serving-side failure.
  BatchTicket submit_gemm_batch(const std::string& tenant,
                                std::span<const gemm::GemmShape> shapes,
                                const SubmitOptions& submit = {});

  // Whole-model inference: one request that one shard answers with
  // InferenceRunner::run, so the report is bit-identical to a direct run on
  // one array with this shard config (per-layer Eq. 6 mode choice; the
  // layers fan out on the shared sim pool when sim_threads > 1).  Coalesces
  // with concurrent submissions of the same model (by shared_ptr identity):
  // the batch runs the model once and splits its energy and time across
  // the requesters.  Deadline, admission timeout and retries apply as for
  // a GEMM.  SubmitOptions::k, want_output and backend are ignored for
  // inference.  Throws like submit_gemm.
  std::future<InferenceResult> submit_inference(
      const std::string& tenant, std::shared_ptr<const nn::Model> model,
      const SubmitOptions& submit = {});

  // The windowed overload signal as of the last control tick (always false
  // under the "block" policy with autoscaling off — no control thread).
  bool overloaded() const { return overloaded_.load(); }

  // Currently live shards (autoscaling moves this between min/max bounds).
  int num_shards() const { return live_shards_.load(); }
  int max_shards() const { return static_cast<int>(shards_.size()); }
  const std::string& backend() const { return options_.backend; }

  ServerStats stats() const;

  // Queued simulated work right now, in MACs — a lock-free read of the
  // dispatcher's backlog-cost mirror.  The load signal the fleet router's
  // power-of-two-choices placement compares servers by.
  std::int64_t backlog_cost_macs() const { return dispatcher_->approx_cost(); }

  // Closes admission, drains every accepted request, joins the autoscaler
  // and the shard workers.  Idempotent; the destructor calls it.
  void shutdown();

  // Simulated CRASH: closes admission immediately and fails everything
  // still queued with af::Error(kUnavailable) instead of serving it —
  // ServerStats::unserved counts them.  In-flight batches still finish and
  // deliver (a real process death would lose them; in-process we keep the
  // stronger contract that every accepted promise resolves).  The crucial
  // guarantee for the fleet layer: a kUnavailable request was NEVER
  // executed, so re-admitting it on another server cannot double-serve.
  // Idempotent; safe concurrently with shutdown().
  void quiesce();

  // Simulated STALL failpoint: while paused, shard workers stop picking up
  // batches — even a worker already waiting for work (queued work sits,
  // admission stays open, deadlines keep running), so everything submitted
  // under a pause is dispatched only after it.  pause_serving(false)
  // resumes; shutdown() drains a paused server and quiesce() strands its
  // queue.  A no-op once the server is shut down.
  void pause_serving(bool paused);
  bool serving_paused() const { return dispatcher_->paused(); }

 private:
  struct Shard;

  // The admission steps every submit shares, in order.  admit: the
  // shutdown and deadline_ms checks, then the "reject" policy check (before
  // any admission work), whose refusal books `count` logical requests — a
  // batch's shape count, 1 otherwise.  stamp: the id, tenant, enqueue time
  // `now` and deadline every Request carries.  enqueue:
  // pushes `r`, whose `count` requests the caller has already added to
  // submitted_ (a fast worker may complete them before the push returns,
  // and stats() must never show completed > submitted); a refusal unbooks
  // them and throws kOverloaded (admission timeout, booked as rejected) or
  // kShutdown.  `r` is moved from only when the push is accepted.
  void admit(const std::string& tenant, const SubmitOptions& submit,
             std::int64_t count);
  void stamp(Request& r, const std::string& tenant,
             const SubmitOptions& submit, Clock::time_point now);
  void enqueue(Request& r, const SubmitOptions& submit, std::int64_t count);

  void shard_loop(Shard& shard);
  // One hardware run per fusion group; a fused run that fails validation
  // re-runs member by member.  A request whose own run fails validation
  // fails alone; an engine fault throws to handle_batch_failure.
  void execute_gemm_batch(Shard& shard, Batch& batch);
  void execute_infer_batch(Shard& shard, Batch& batch);
  // Batched cost queries: answers each request's shapes through the
  // engine's vectorized evaluate_batch and completes its pooled slot, with
  // the same validation rule.  Never touches the array configuration (no
  // prepare_mode, no drain) — planning traffic must not stall execution.
  void execute_cost_batch(Shard& shard, Batch& batch);
  // Calls on_settle_, if set: after each promise or batch slot settled.
  void settled() const {
    if (on_settle_) on_settle_();
  }
  // Core failure delivery: fails each request's promise (or batch slot)
  // with `error` and counts per-tenant errors under `code`.  Each settled request's logical
  // count (a batch's shapes, else 1) moves `completed_` and, when given,
  // `bucket` (`expired_` or `unserved_`).  A promise that was already
  // satisfied is a double-set bug: counted in
  // ServerStats::promise_double_sets and fatal in debug builds.
  void fail_requests(std::span<Request> requests, std::exception_ptr error,
                     ErrorCode code,
                     std::atomic<std::int64_t>* bucket = nullptr);
  // Shard-side reaper half: fails batch.expired (reaped while queued) and
  // any rider that went overdue between assembly and now.
  void resolve_expired(Batch& batch);
  // Engine-throw containment: classifies `error`, retries retry-permitting
  // requests on a different shard with capped exponential backoff, fails
  // the rest, and quarantines the shard after quarantine_after_faults
  // consecutive faults.
  void handle_batch_failure(Shard& shard, Batch& batch,
                            std::exception_ptr error);
  // Quarantined-shard recovery probe: rebuilds the shard's engine and runs
  // a tiny GEMM; on success the shard rejoins the routing pool.  Returns
  // true when the shard is healthy again.
  bool probe_quarantined(Shard& shard);
  // The submit-path overload trip: the latch's windowed verdict OR hot()
  // on the dispatcher's lock-free mirrors (so a burst trips admission
  // before the next control tick can see it).
  bool under_pressure() const;
  // The queue's Pressure now: `depth` and the dispatcher's backlog mirrors
  // divided by the live shard count, plus the given window p99.
  Pressure sample(double depth, double wait_p99_ms) const;
  // Adds one enqueue->dispatch wait to waits_.  Only the control thread
  // reads the window, so without one this skips the shared mutex.
  void sample_wait(double queue_ms);
  // Mode bookkeeping before a GEMM batch runs in mode k: counts the switch
  // and bills the drain (time at the new mode's clock, leakage energy) to
  // the shard when it was configured differently, publishes the new mode
  // to the dispatcher's locality signal, and credits a stolen batch that
  // arrived already in the configured mode (steal_drains_avoided).
  void prepare_mode(Shard& shard, int k, bool stolen = false);

  // Engine lifecycle on scale events: acquire builds the shard's serving
  // engine through engine_builder_ and installs it; release drops the
  // engines after the worker joined.
  void acquire_shard(Shard& shard);
  void release_shard(Shard& shard);
  // The one install path (acquire_shard and a successful recovery probe):
  // `engine` becomes the shard's serving engine with a fresh audit engine
  // and no cached override engines, and the shard starts clean —
  // fault streak cleared, quarantine and routing ban lifted, mode 0.
  void install_engine(Shard& shard, std::shared_ptr<engine::Engine> engine);
  void start_worker(Shard& shard);
  // The batch's execution engine: the shard default (degraded batches
  // too), or the per-request override built lazily (and cached) on the
  // shard.
  engine::Engine* engine_for(Shard& shard, const Batch& batch);

  // Control thread: one Pressure sample per tick (the wait window read and
  // reset once) feeds BOTH the autoscaler streaks and the overload latch.
  // Runs whenever autoscaling is enabled OR the overload policy is not
  // "block".
  void control_loop();
  void grow_to(int want);
  void shrink_to(int want);
  // Updates every ShardSnapshot::live flag AND live_shards_ under the
  // stats mutex, so stats() snapshots are always internally consistent
  // (flag count == live_shards).
  void publish_live_set(int live);

  arch::ArrayConfig shard_config_;
  ServerOptions options_;
  int min_shards_ = 1;
  int max_shards_ = 1;
  bool autoscale_enabled_ = false;
  std::unique_ptr<util::ThreadPool> sim_pool_;
  // The one builder every shard acquires engines through — shard config,
  // the paper's calibrated clock, the server's energy params, the shared
  // pool (also the scale-event and per-request-override engine source).
  engine::EngineBuilder engine_builder_;
  // Serial analytic engine used at admission for per-request mode choice
  // (mode planning is closed-form on every backend).
  std::shared_ptr<engine::Engine> admission_engine_;
  // The server-wide CostEstimate memoization cache (engine/cost_cache.h),
  // injected into the admission engine and — through engine_builder_ —
  // every shard, audit and override engine: one shape priced anywhere is
  // priced everywhere.  Keys carry the config/energy fingerprint, so an
  // entry never answers for an engine wired differently.
  std::shared_ptr<engine::CostCache> cost_cache_;
  // Freelist of batched-path completion slots (see serve/batch_slot.h).
  SlotPool slot_pool_;
  std::unique_ptr<Dispatcher> dispatcher_;
  TenantAccountant tenants_;
  std::vector<std::unique_ptr<Shard>> shards_;  // max_shards_ slots

  std::atomic<int> live_shards_{0};
  util::Streak grow_{kGrowPatience};      // control-thread private, like
  util::Streak shrink_{kShrinkPatience};  // overload_ below
  std::thread autoscaler_;            // the control thread (see control_loop)
  bool control_enabled_ = false;       // autoscale or non-block policy
  std::mutex scale_mutex_;             // serializes scale transitions
  std::condition_variable scale_cv_;   // wakes the control thread for shutdown
  std::atomic<std::int64_t> scale_ups_{0};
  std::atomic<std::int64_t> scale_downs_{0};

  OverloadPolicy overload_policy_ = OverloadPolicy::kBlock;
  // Control-thread private: on at the first hot tick, off after two cool.
  util::Latch overload_{1, 2};
  std::atomic<bool> overloaded_{false};  // the latch's published state

  // Admission-time pipeline-mode policy for optimizer-choice GEMMs.  The
  // mutex serializes concurrent submitters through the policy's stream
  // state; the "argmin" default never takes it (stateless fast path).
  ReconfigPolicy reconfig_;
  mutable std::mutex reconfig_mutex_;

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::int64_t> rejected_{0};
  std::atomic<std::int64_t> expired_{0};
  std::atomic<std::int64_t> engine_faults_{0};
  std::atomic<std::int64_t> retries_{0};
  std::atomic<std::int64_t> quarantines_{0};
  std::atomic<std::int64_t> degraded_{0};
  std::atomic<std::int64_t> unserved_{0};
  std::atomic<std::int64_t> promise_double_sets_{0};
  mutable std::mutex shard_stats_mutex_;  // guards every Shard::stats
  std::mutex shutdown_mutex_;
  std::atomic<bool> shut_down_{false};
  std::function<void()> on_settle_;  // see the constructor
  // The control thread's wait window: shard workers add each request's
  // enqueue->dispatch wait (sample_wait), control_loop reads the p99 and
  // resets it every tick, so the signal covers only waits since the
  // previous decision (a long-gone burst cannot keep the pool inflated).
  // The p99 never under-reports and over-reports by at most 1/64.
  std::mutex wait_mutex_;
  sim::Histogram waits_;
};

}  // namespace af::serve
