#include "serve/server.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <thread>
#include <tuple>
#include <utility>

#include "engine/cost_cache.h"
#include "mem/tile_scheduler.h"
#include "nn/runner.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace af::serve {
namespace {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Maps SubmitOptions::admission_timeout_ms onto the dispatcher's timed
// submit: negative = wait forever (classic blocking admission).
Clock::time_point admission_deadline(Clock::time_point now,
                                     double timeout_ms) {
  if (timeout_ms < 0.0) return Clock::time_point::max();
  return deadline_after(now, timeout_ms);
}

// The ErrorCode carried by an in-flight exception (kUnknown for anything
// that is not an af::Error — e.g. a std::bad_alloc out of an engine).
ErrorCode code_of(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const Error& e) {
    return e.code();
  } catch (...) {
    return ErrorCode::kUnknown;
  }
}

// The per-request overrides both GEMM kinds validate: an explicit mode the
// shard config supports and a registered backend.  is_registered is
// allocation-free and the message (with its registry join) is only built
// on failure — this runs on every overridden submit.
void check_overrides(const arch::ArrayConfig& config,
                     const SubmitOptions& submit) {
  if (submit.k != 0) {
    AF_CHECK(config.supports(submit.k),
             "mode k=" << submit.k << " not supported");
  }
  if (!submit.backend.empty()) {
    AF_CHECK(engine::is_registered(submit.backend),
             "unknown per-request backend \""
                 << submit.backend << "\" (registered: "
                 << engine::registered_backend_list() << ")");
  }
}

std::array<double, 4> terms(const Pressure& p) {
  return {p.depth, p.wait_p99_ms, p.backlog_macs, p.backlog_bytes};
}

constexpr const char* kTermNames[] = {"depth", "wait_p99_ms", "backlog_macs",
                                      "backlog_bytes"};

// Every term a number >= 0 (0 = off).  A consumer that runs needs at least
// one term on: an all-off grow or overload limit never fires, an all-off
// shrink limit always does.
void check_pressure(const char* name, const Pressure& at, bool active) {
  const std::array<double, 4> t = terms(at);
  bool any_on = false;
  for (std::size_t i = 0; i < t.size(); ++i) {
    AF_CHECK(t[i] >= 0.0, name << "." << kTermNames[i]
                               << " must be a non-negative number (0 = off), "
                                  "got "
                               << t[i]);
    any_on = any_on || t[i] > 0.0;
  }
  AF_CHECK(!active || any_on, name << " has every term off (0)");
}

}  // namespace

OverloadPolicy parse_overload_policy(const std::string& name) {
  if (name == "block") return OverloadPolicy::kBlock;
  if (name == "degrade") return OverloadPolicy::kDegrade;
  if (name == "reject") return OverloadPolicy::kReject;
  AF_CHECK(false, "unknown overload policy \""
                      << name
                      << "\" (registered: \"block\", \"degrade\", \"reject\")");
  return OverloadPolicy::kBlock;  // unreachable
}

std::vector<std::string> overload_policy_names() {
  // Sorted, like the engine registry — the README's policy matrix must
  // list exactly these rows (CI diffs the two).
  return {"block", "degrade", "reject"};
}

std::string overload_policy_description(const std::string& name) {
  switch (parse_overload_policy(name)) {
    case OverloadPolicy::kBlock:
      return "classic backpressure: submit blocks on the full queue; nothing "
             "is refused, admitted latency unbounded under sustained overload";
    case OverloadPolicy::kDegrade:
      return "admit everything, but serve GEMMs cost-only on the shard "
             "default engine (no output, fidelity overrides dropped) and "
             "shed sampled audits while the overload window holds";
    case OverloadPolicy::kReject:
      return "fail fast: submit throws af::Error(kOverloaded) while the "
             "overload window or instantaneous depth trip holds; admitted "
             "requests keep bounded waits";
  }
  return {};  // unreachable
}

bool hot(const Pressure& p, const Pressure& at) {
  const std::array<double, 4> v = terms(p);
  const std::array<double, 4> limit = terms(at);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (limit[i] > 0.0 && v[i] >= limit[i]) return true;
  }
  return false;
}

bool cool(const Pressure& p, const Pressure& at) {
  const std::array<double, 4> v = terms(p);
  const std::array<double, 4> limit = terms(at);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (limit[i] > 0.0 && v[i] > limit[i]) return false;
  }
  return true;
}

std::int64_t ServerStats::audit_runs() const {
  std::int64_t n = 0;
  for (const ShardSnapshot& s : shards) n += s.audit_runs;
  return n;
}

std::int64_t ServerStats::audit_mismatches() const {
  std::int64_t n = 0;
  for (const ShardSnapshot& s : shards) n += s.audit_mismatches;
  return n;
}

// One execution engine plus everything stateful around it.  The engine
// owns the clock/power wiring (per-shard mode state lives in `stats`,
// written only under the server's shard_stats_mutex_ so stats() can
// snapshot concurrently); `audit_engine` is the cycle-accurate replayer
// for sampled cross-checks, null when auditing is off.  Engines are
// ACQUIRED and RELEASED by the autoscaler (Server::acquire_shard /
// release_shard) — a slot above the live prefix holds no engine at all.
struct Server::Shard {
  int index;
  std::shared_ptr<engine::Engine> engine;
  std::shared_ptr<engine::Engine> audit_engine;
  // Per-request fidelity overrides, built lazily and cached.  Touched only
  // by this shard's worker thread.
  std::map<std::string, std::shared_ptr<engine::Engine>> override_engines;
  // Deterministic audit sampling: += audit_fraction per fused run; every
  // crossing of 1.0 replays that run on the audit engine.
  double audit_credit = 0.0;
  // Consecutive engine faults with no clean batch in between (worker-thread
  // private); reaching quarantine_after_faults trips the quarantine below.
  int fault_streak = 0;
  // Set by the worker on quarantine, cleared by a successful recovery
  // probe; read by stats() via ShardSnapshot::quarantined.
  std::atomic<bool> quarantined{false};
  ShardSnapshot stats;
  std::thread worker;

  explicit Shard(int idx) : index(idx) { stats.shard = idx; }
};

Server::Server(const arch::ArrayConfig& shard_config, ServerOptions options,
               std::function<void()> on_settle)
    : shard_config_(shard_config),
      options_(options),
      on_settle_(std::move(on_settle)) {
  AF_CHECK(options_.num_shards >= 1, "server needs at least one shard");
  AF_CHECK(options_.max_batch >= 1, "max_batch must be at least 1");
  AF_CHECK(options_.audit_fraction >= 0.0 && options_.audit_fraction <= 1.0,
           "audit_fraction must be in [0, 1]");
  min_shards_ =
      options_.min_shards > 0 ? options_.min_shards : options_.num_shards;
  max_shards_ =
      options_.max_shards > 0 ? options_.max_shards : options_.num_shards;
  autoscale_enabled_ = min_shards_ < max_shards_;
  AF_CHECK(min_shards_ >= 1 && min_shards_ <= options_.num_shards &&
               options_.num_shards <= max_shards_,
           "shard bounds must satisfy 1 <= min_shards <= num_shards <= "
           "max_shards, got min="
               << min_shards_ << " num=" << options_.num_shards
               << " max=" << max_shards_);
  overload_policy_ = parse_overload_policy(options_.overload_policy);
  check_pressure("grow_at", options_.grow_at, autoscale_enabled_);
  check_pressure("shrink_at", options_.shrink_at, autoscale_enabled_);
  check_pressure("overload_at", options_.overload_at,
                 overload_policy_ != OverloadPolicy::kBlock);
  const std::array<double, 4> grow = terms(options_.grow_at);
  const std::array<double, 4> shrink = terms(options_.shrink_at);
  for (std::size_t i = 0; i < grow.size(); ++i) {
    AF_CHECK(grow[i] == 0.0 || shrink[i] == 0.0 || shrink[i] < grow[i],
             "shrink_at." << kTermNames[i] << " (" << shrink[i]
                          << ") must sit below grow_at." << kTermNames[i]
                          << " (" << grow[i] << ")");
  }
  AF_CHECK(options_.max_retries >= 0, "max_retries must be non-negative");
  AF_CHECK(options_.quarantine_after_faults >= 0,
           "quarantine_after_faults must be non-negative");
  AF_CHECK(options_.max_batch_bytes >= 0,
           "max_batch_bytes must be non-negative");
  // The control thread exists for either consumer of the pressure window:
  // the autoscaler, or a non-"block" overload policy.
  control_enabled_ =
      autoscale_enabled_ || overload_policy_ != OverloadPolicy::kBlock;
  // The shards' engines run serially on their own; cross-tile parallelism
  // comes from the one shared pool below (never a pool per shard — that is
  // the threads² oversubscription this layer exists to avoid).
  shard_config_.sim.num_threads = 1;
  shard_config_.validate();
  const int sim_threads =
      util::ThreadPool::resolve_num_threads(options_.sim_threads);
  if (sim_threads > 1) {
    sim_pool_ = std::make_unique<util::ThreadPool>(sim_threads);
  }
  if (options_.reconfig_cycles < 0) {
    options_.reconfig_cycles = shard_config_.rows + shard_config_.cols;
  }
  AF_CHECK(options_.reconfig_switch_margin >= 0.0,
           "reconfig_switch_margin must be non-negative");
  reconfig_.kind = parse_reconfig_policy(options_.reconfig_policy);
  reconfig_.switch_margin = options_.reconfig_switch_margin;

  // One builder wires every engine identically: shard config, the paper's
  // calibrated clock, the server's energy params, the one shared pool.
  // Scale-ups and per-request overrides acquire through it too.  The
  // server-wide cost cache rides in the builder, so every engine the
  // server ever constructs (shards, audits, overrides, degrade engines,
  // quarantine probes) memoizes into ONE map — keyed per engine by the
  // config/energy fingerprint, so differently-wired engines never share
  // entries, only the map.
  cost_cache_ = std::make_shared<engine::CostCache>();
  engine_builder_.config(shard_config_)
      .energy(options_.energy)
      .shared_pool(sim_pool_.get())
      .chaos(options_.chaos)
      .cost_cache(cost_cache_);
  admission_engine_ = engine::EngineBuilder()
                          .config(shard_config_)
                          .energy(options_.energy)
                          .cost_cache(cost_cache_)
                          .build("analytic");

  DispatcherOptions dispatch;
  dispatch.queue_capacity = options_.queue_capacity;
  dispatch.max_batch = options_.max_batch;
  dispatch.max_batch_bytes = options_.max_batch_bytes;
  dispatch.max_shards = max_shards_;
  dispatch.live_shards = options_.num_shards;
  dispatcher_ = std::make_unique<Dispatcher>(dispatch);

  shards_.reserve(static_cast<std::size_t>(max_shards_));
  for (int i = 0; i < max_shards_; ++i) {
    shards_.push_back(std::make_unique<Shard>(i));
  }
  for (int i = 0; i < options_.num_shards; ++i) {
    acquire_shard(*shards_[static_cast<std::size_t>(i)]);
  }
  publish_live_set(options_.num_shards);
  for (int i = 0; i < options_.num_shards; ++i) {
    start_worker(*shards_[static_cast<std::size_t>(i)]);
  }
  if (control_enabled_) {
    autoscaler_ = std::thread([this] { control_loop(); });
  }
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  shut_down_.store(true);
  {
    std::lock_guard<std::mutex> lock(scale_mutex_);
  }
  scale_cv_.notify_all();
  if (autoscaler_.joinable()) autoscaler_.join();
  // A stalled server still drains: unpause before closing (pause_serving
  // cannot re-pause, it takes shutdown_mutex_ and sees shut_down_).
  dispatcher_->set_paused(false);
  dispatcher_->close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void Server::quiesce() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (shut_down_.load()) return;  // shutdown/quiesce already ran
  // Paused BEFORE the shut_down_ flip that releases quarantined workers:
  // from here on no worker takes a new batch, and close() below releases
  // them without draining, so nothing races the strand by grabbing queued
  // work on the way down.
  dispatcher_->set_paused(true);
  shut_down_.store(true);
  {
    std::lock_guard<std::mutex> lock(scale_mutex_);
  }
  scale_cv_.notify_all();
  if (autoscaler_.joinable()) autoscaler_.join();
  dispatcher_->close();
  // In-flight batches finish and deliver normally; workers parked in
  // next_batch wake on close() and exit, paused, without a batch.  Joining
  // them FIRST means drain_remaining below sees the queue's final state —
  // no worker can pop concurrently with the strand.
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // The crash semantics: everything still QUEUED is handed back with
  // kUnavailable instead of being served — these requests never touched an
  // engine, so a fleet re-admitting them elsewhere cannot double-serve.
  std::vector<Request> stranded = dispatcher_->drain_remaining();
  if (!stranded.empty()) {
    fail_requests(stranded,
                  std::make_exception_ptr(
                      Error("server killed before this request could run",
                            ErrorCode::kUnavailable)),
                  ErrorCode::kUnavailable, &unserved_);
  }
}

void Server::pause_serving(bool paused) {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (!shut_down_.load()) dispatcher_->set_paused(paused);
}

void Server::acquire_shard(Shard& shard) {
  install_engine(shard, engine_builder_.build(options_.backend));
}

void Server::install_engine(Shard& shard,
                            std::shared_ptr<engine::Engine> engine) {
  shard.engine = std::move(engine);
  shard.audit_engine =
      options_.audit_fraction > 0.0 && !shard.engine->measures()
          ? engine_builder_.build("cycle")
          : nullptr;
  // Caches wired to a previous engine go with it.
  shard.override_engines.clear();
  // A slot re-acquired after retiring while quarantined, or recovered by a
  // probe, starts clean: fault history cleared, routing ban lifted.
  shard.fault_streak = 0;
  {
    std::lock_guard<std::mutex> lock(shard_stats_mutex_);
    shard.stats.quarantined = false;
    shard.stats.backend = shard.engine->name();
    shard.stats.current_k = 0;  // the new array configures from scratch
  }
  dispatcher_->set_shard_mode(shard.index, 0);
  shard.quarantined.store(false, std::memory_order_release);
  dispatcher_->set_banned(shard.index, false);
}

void Server::release_shard(Shard& shard) {
  shard.override_engines.clear();
  shard.audit_engine.reset();
  shard.engine.reset();
  dispatcher_->set_shard_mode(shard.index, 0);
  std::lock_guard<std::mutex> lock(shard_stats_mutex_);
  shard.stats.current_k = 0;
}

void Server::publish_live_set(int live) {
  // ShardSnapshot::live and live_shards_ change together under the stats
  // mutex (which stats() holds for its whole snapshot), so no snapshot can
  // ever show a live-flag count disagreeing with live_shards — and once a
  // lock-free num_shards() read returns the new count, the flags are
  // already in place.
  std::lock_guard<std::mutex> lock(shard_stats_mutex_);
  for (int s = 0; s < max_shards_; ++s) {
    shards_[static_cast<std::size_t>(s)]->stats.live = s < live;
  }
  live_shards_.store(live);
}

void Server::start_worker(Shard& shard) {
  // A retired slot's thread has exited but may still hold a joinable
  // handle; reclaim it before re-spawning.
  if (shard.worker.joinable()) shard.worker.join();
  Shard* s = &shard;
  shard.worker = std::thread([this, s] { shard_loop(*s); });
}

void Server::control_loop() {
  std::unique_lock<std::mutex> lock(scale_mutex_);
  const std::chrono::duration<double, std::milli> interval(kControlIntervalMs);
  // The latch exits only once every enabled term sits below half its
  // limit — the band between is the dead zone, so a load hovering at the
  // trip point cannot flap admission decisions tick to tick.
  const Pressure& at = options_.overload_at;
  const Pressure exit_at{0.5 * at.depth, 0.5 * at.wait_p99_ms,
                         0.5 * at.backlog_macs, 0.5 * at.backlog_bytes};
  while (!scale_cv_.wait_for(lock, interval,
                             [this] { return shut_down_.load(); })) {
    const int live = live_shards_.load();
    // One read per tick feeds BOTH consumers — the window resets here, so
    // the latch and the autoscaler must share the sample.
    double wait_p99_ms = 0.0;
    {
      std::lock_guard<std::mutex> waits_lock(wait_mutex_);
      if (waits_.count() > 0) wait_p99_ms = waits_.quantile(0.99);
      waits_ = {};
    }
    const Pressure p =
        sample(static_cast<double>(dispatcher_->depth()), wait_p99_ms);
    if (overload_policy_ != OverloadPolicy::kBlock) {
      overloaded_.store(overload_.update(hot(p, at), cool(p, exit_at)));
    }
    if (autoscale_enabled_) {
      // Both streaks tick every time, so each band's tick resets the other
      // streak and the dead zone between them resets both.
      const bool pressured = hot(p, options_.grow_at);
      const bool grow = grow_.tick(pressured);
      const bool shrink =
          shrink_.tick(!pressured && cool(p, options_.shrink_at));
      if (grow && live < max_shards_) {
        grow_to(live + 1);
      } else if (shrink && live > min_shards_) {
        shrink_to(live - 1);
      }
    }
  }
}

Pressure Server::sample(double depth, double wait_p99_ms) const {
  const double live = static_cast<double>(std::max(1, live_shards_.load()));
  return {depth / live, wait_p99_ms,
          static_cast<double>(dispatcher_->approx_cost()) / live,
          static_cast<double>(dispatcher_->approx_bytes()) / live};
}

void Server::sample_wait(double queue_ms) {
  if (!control_enabled_) return;
  std::lock_guard<std::mutex> lock(wait_mutex_);
  waits_.add(queue_ms);
}

bool Server::under_pressure() const {
  if (overloaded_.load(std::memory_order_relaxed)) return true;
  return hot(sample(static_cast<double>(dispatcher_->approx_depth()), 0.0),
             options_.overload_at);
}

void Server::grow_to(int want) {
  const int live = live_shards_.load();
  for (int s = live; s < want; ++s) {
    acquire_shard(*shards_[static_cast<std::size_t>(s)]);
  }
  // Publish the new live set before the workers start, so their first
  // next_batch sees themselves live (and routing starts using them).
  publish_live_set(want);
  dispatcher_->set_live_shards(want);
  for (int s = live; s < want; ++s) {
    start_worker(*shards_[static_cast<std::size_t>(s)]);
  }
  scale_ups_.fetch_add(want - live);
}

void Server::shrink_to(int want) {
  const int old = live_shards_.load();
  publish_live_set(want);
  // Drains the retired deques back into the steal pool BEFORE the workers
  // are joined: their in-flight batches finish normally, queued work moves
  // to surviving shards, nothing is dropped or double-served.
  dispatcher_->set_live_shards(want);
  for (int s = want; s < old; ++s) {
    Shard& shard = *shards_[static_cast<std::size_t>(s)];
    if (shard.worker.joinable()) shard.worker.join();
    release_shard(shard);
  }
  scale_downs_.fetch_add(old - want);
}

void Server::admit(const std::string& tenant, const SubmitOptions& submit,
                   std::int64_t count) {
  if (shut_down_.load()) {
    throw Error("submit on a shut-down server", ErrorCode::kShutdown);
  }
  AF_CHECK(submit.deadline_ms >= 0.0, "deadline_ms must be non-negative");
  AF_CHECK(!std::isnan(submit.admission_timeout_ms),
           "admission_timeout_ms must not be NaN");
  // Overload policy fires before any admission work: a rejected request
  // costs the client one atomic read and one depth estimate — a batch of N
  // shapes too, not N, though its rejection counts every shape.
  if (overload_policy_ == OverloadPolicy::kReject && under_pressure()) {
    rejected_.fetch_add(count);
    tenants_.record_error(tenant, ErrorCode::kOverloaded);
    throw Error("overloaded: admission rejected under the \"reject\" policy",
                ErrorCode::kOverloaded);
  }
}

void Server::stamp(Request& r, const std::string& tenant,
                   const SubmitOptions& submit, Clock::time_point now) {
  r.id = next_id_.fetch_add(1);
  r.tenant = tenant;
  r.enqueue_time = now;
  if (submit.deadline_ms > 0.0) {
    r.deadline = deadline_after(now, submit.deadline_ms);
  }
}

void Server::enqueue(Request& r, const SubmitOptions& submit,
                     std::int64_t count) {
  switch (dispatcher_->submit_until(
      r, admission_deadline(r.enqueue_time, submit.admission_timeout_ms))) {
    case SubmitResult::kAccepted:
      return;
    case SubmitResult::kWouldBlock:
      submitted_.fetch_sub(count);
      rejected_.fetch_add(count);
      tenants_.record_error(r.tenant, ErrorCode::kOverloaded);
      throw Error("overloaded: queue still full after admission timeout",
                  ErrorCode::kOverloaded);
    case SubmitResult::kClosed:
      break;
  }
  submitted_.fetch_sub(count);
  throw Error("server shut down while enqueueing", ErrorCode::kShutdown);
}

std::future<GemmResult> Server::submit_gemm(
    const std::string& tenant, gemm::Mat32 a,
    std::shared_ptr<const gemm::Mat32> b, const SubmitOptions& submit) {
  AF_CHECK(b != nullptr, "weight matrix required");
  AF_CHECK(a.rows() > 0, "activation matrix must be non-empty");
  AF_CHECK(a.cols() == b->rows(), "GEMM inner-dimension mismatch: "
                                      << a.cols() << " vs " << b->rows());
  check_overrides(shard_config_, submit);
  admit(tenant, submit, 1);
  const bool degrade_now =
      overload_policy_ == OverloadPolicy::kDegrade && under_pressure();
  Request r;
  r.kind = RequestKind::kGemm;
  r.backend = submit.backend;
  r.shape = gemm::GemmShape{b->cols(), b->rows(), a.rows()};
  r.drr_cost =
      std::max<std::int64_t>(1, r.shape.t * r.shape.n * r.shape.m);
  // Projected compulsory DRAM traffic (A+B+C, byte widths from the shard
  // config) — the byte-budget batching and bandwidth-pressure signal.
  // Well-defined even with the memory hierarchy disabled.
  r.drr_bytes = mem::projected_gemm_bytes(r.shape, shard_config_);
  // Marginal bytes if this request ends up riding a same-weight fusion
  // (private A+C only) — batch assembly picks between the two charges.
  r.drr_rider_bytes = mem::projected_fused_rider_bytes(r.shape, shard_config_);
  if (submit.k != 0) {
    r.decided_k = submit.k;
  } else if (reconfig_.kind == ReconfigPolicyKind::kArgmin) {
    // The stateless default keeps the historical lock-free admission path,
    // now memoized: the first request of a shape pays the Eq. 6 argmin,
    // every repeat answers from the shared cost cache's plan store.
    r.decided_k = admission_engine_->plan(r.shape)->best.k;
  } else {
    // Runtime reconfiguration: feed the policy this request's full mode
    // plan plus the drain price a switch would bill (prepare_mode charges
    // reconfig_cycles at the NEW mode's clock — price it at the
    // challenger's period, i.e. the mode a switch would move to).  The
    // plan itself is memoized in the shared cache (policies re-project
    // the same shapes every request; re-deriving every mode per admission
    // was the hot path's single biggest line item).
    const std::shared_ptr<const engine::ModePlan> plan =
        admission_engine_->plan(r.shape);
    const double drain_ps = static_cast<double>(options_.reconfig_cycles) *
                            plan->best.period_ps;
    std::lock_guard<std::mutex> lock(reconfig_mutex_);
    r.decided_k = reconfig_.decide(plan->modes, drain_ps);
  }
  r.a = std::move(a);
  r.b = std::move(b);
  r.want_output = submit.want_output;
  if (degrade_now) {
    // Pressure traffic is admitted but served cost-only on the shard
    // default engine: no output, no fidelity override, audits shed.  The
    // result still carries exact cycles/time/energy (and degraded = true).
    r.degraded = true;
    r.want_output = false;
    r.backend.clear();
    degraded_.fetch_add(1);
    tenants_.record_degraded(tenant);
  }
  stamp(r, tenant, submit, Clock::now());
  std::future<GemmResult> future = r.gemm_promise.get_future();
  submitted_.fetch_add(1);
  enqueue(r, submit, 1);
  return future;
}

BatchTicket Server::submit_gemm_batch(const std::string& tenant,
                                      std::span<const gemm::GemmShape> shapes,
                                      const SubmitOptions& submit) {
  AF_CHECK(!shapes.empty(), "submit_gemm_batch needs at least one shape");
  check_overrides(shard_config_, submit);
  const std::int64_t count = static_cast<std::int64_t>(shapes.size());
  admit(tenant, submit, count);
  // Shape validation up front (the engine would reject them too, but at
  // admission the CLIENT gets the throw instead of a failed ticket), and
  // the DRR charge: cost queries run no hardware, so they are billed by
  // query count — a tenant spamming estimates shares the planning lane
  // fairly without starving anyone's real GEMM MACs.
  Request r;
  r.kind = RequestKind::kGemmBatch;
  r.backend = submit.backend;
  r.decided_k = submit.k;  // 0 = per-shape argmin inside evaluate_batch
  r.want_output = false;   // the batched path is cost-only by construction
  r.drr_cost = count;
  r.drr_bytes = 0;         // no operands, no projected DRAM traffic
  r.drr_rider_bytes = 0;
  std::shared_ptr<BatchSlot> slot = slot_pool_.acquire();
  std::vector<gemm::GemmShape>& slot_shapes = slot->shapes();
  slot_shapes.reserve(shapes.size());
  for (const gemm::GemmShape& s : shapes) {
    AF_CHECK(s.m > 0 && s.n > 0 && s.t > 0,
             "submit_gemm_batch shape dims must be positive, got m="
                 << s.m << " n=" << s.n << " t=" << s.t);
    slot_shapes.push_back(s);
  }
  r.slot = slot;
  stamp(r, tenant, submit, Clock::now());
  // Every shape is one logical request in the books: submitted_ moves by
  // the batch size here, completed_ moves by the same on delivery or
  // failure, so submitted == completed still balances (the lifecycle
  // invariant the tests pin).
  submitted_.fetch_add(count);
  enqueue(r, submit, count);
  return BatchTicket(std::move(slot), &slot_pool_);
}

std::future<InferenceResult> Server::submit_inference(
    const std::string& tenant, std::shared_ptr<const nn::Model> model,
    const SubmitOptions& submit) {
  AF_CHECK(model != nullptr && !model->layers.empty(),
           "inference needs a non-empty model");
  // Inference is never degraded (its fidelity IS the product); under
  // pressure the "reject" policy sheds it like any other admission.
  admit(tenant, submit, 1);
  Request r;
  r.kind = RequestKind::kInference;
  r.drr_cost = std::max<std::int64_t>(1, model->total_macs());
  r.model = std::move(model);
  r.infer_promise = std::make_unique<std::promise<InferenceResult>>();
  stamp(r, tenant, submit, Clock::now());
  std::future<InferenceResult> future = r.infer_promise->get_future();
  submitted_.fetch_add(1);
  enqueue(r, submit, 1);
  return future;
}

void Server::shard_loop(Shard& shard) {
  while (true) {
    // A quarantined shard stops serving and probes for recovery instead.
    // It still exits promptly when retired by the autoscaler (so
    // shrink_to's join cannot deadlock on a sick shard), and falls
    // through to next_batch at shutdown so the final drain resolves every
    // remaining promise — with a typed error if the engine is still sick.
    while (shard.quarantined.load(std::memory_order_acquire) &&
           !shut_down_.load()) {
      if (shard.index >= live_shards_.load()) return;
      if (probe_quarantined(shard)) break;
    }
    auto batch = dispatcher_->next_batch(shard.index);
    if (!batch) return;
    resolve_expired(*batch);
    if (batch->requests.empty()) continue;  // everything in it was overdue
    try {
      if (batch->kind == RequestKind::kGemm) {
        execute_gemm_batch(shard, *batch);
      } else if (batch->kind == RequestKind::kGemmBatch) {
        execute_cost_batch(shard, *batch);
      } else {
        execute_infer_batch(shard, *batch);
      }
      shard.fault_streak = 0;  // a clean batch ends any fault run
    } catch (...) {
      // A failing batch must not take the whole server down (a worker
      // thread's escaped exception is std::terminate): contain it —
      // retry what the budget allows, fail the rest typed, quarantine
      // the shard when faults keep coming.
      handle_batch_failure(shard, *batch, std::current_exception());
    }
  }
}

void Server::fail_requests(std::span<Request> requests,
                           std::exception_ptr error, ErrorCode code,
                           std::atomic<std::int64_t>* bucket) {
  // All accounting lands before the promise resolves, so a client that
  // wakes on the error and immediately calls stats() sees the books
  // already balanced (the same ordering execute_gemm_batch keeps).  Every
  // count is in logical requests: a batch's shapes, one per GEMM or
  // inference.
  const auto book = [&](std::int64_t count) {
    completed_.fetch_add(count);
    if (bucket != nullptr) bucket->fetch_add(count);
  };
  // A promise that already held a value or error means this request was
  // served (or failed) twice — the exact lifecycle bug this layer exists
  // to rule out.  The books move back and the bug is counted, so release
  // builds surface it in stats(); fatal in debug builds.
  const auto unbook = [&](std::int64_t count) {
    completed_.fetch_sub(count);
    if (bucket != nullptr) bucket->fetch_sub(count);
    promise_double_sets_.fetch_add(1);
  };
  for (Request& r : requests) {
    if (r.kind == RequestKind::kGemmBatch) {
      // One slot failure settles every shape in the batch; the books move
      // by the batch size (each shape was counted at submission).
      const std::int64_t count = static_cast<std::int64_t>(r.slot->count());
      tenants_.record_error(r.tenant, code);
      book(count);
      if (r.slot->fail(error)) {
        settled();
      } else {
        unbook(count);
        AF_ASSERT(false,
                  "batch slot settled twice (request " << r.id << ")");
      }
      continue;
    }
    tenants_.record_error(r.tenant, code);
    book(1);
    try {
      if (r.kind == RequestKind::kGemm) {
        r.gemm_promise.set_exception(error);
      } else {
        r.infer_promise->set_exception(error);
      }
    } catch (const std::future_error&) {
      unbook(1);
      AF_ASSERT(false, "promise settled twice (request " << r.id << ")");
      continue;
    }
    settled();
  }
}

void Server::resolve_expired(Batch& batch) {
  // Two reaping sites meet here: requests the dispatcher swept while they
  // sat queued (batch.expired), and riders that went overdue between batch
  // assembly and this shard picking the batch up.
  std::vector<Request> overdue = std::move(batch.expired);
  batch.expired.clear();
  const Clock::time_point now = Clock::now();
  for (auto it = batch.requests.begin(); it != batch.requests.end();) {
    if (it->expired(now)) {
      overdue.push_back(std::move(*it));
      it = batch.requests.erase(it);
    } else {
      ++it;
    }
  }
  if (overdue.empty()) return;
  fail_requests(
      overdue,
      std::make_exception_ptr(Error("deadline exceeded before execution",
                                    ErrorCode::kDeadlineExceeded)),
      ErrorCode::kDeadlineExceeded, &expired_);
}

void Server::handle_batch_failure(Shard& shard, Batch& batch,
                                  std::exception_ptr error) {
  const ErrorCode code = code_of(error);
  // Anything the engine threw mid-run counts as an engine fault for
  // quarantine purposes — kInvalidArgument out of validation does not (a
  // bad request must not poison its shard).
  const bool engine_fault = code == ErrorCode::kEngineFault ||
                            code == ErrorCode::kUnknown;
  if (engine_fault) {
    engine_faults_.fetch_add(1);
    shard.fault_streak += 1;
    {
      std::lock_guard<std::mutex> lock(shard_stats_mutex_);
      shard.stats.engine_faults += 1;
    }
    if (options_.quarantine_after_faults > 0 &&
        shard.fault_streak >= options_.quarantine_after_faults &&
        !shard.quarantined.load(std::memory_order_relaxed)) {
      quarantines_.fetch_add(1);
      shard.quarantined.store(true, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(shard_stats_mutex_);
        shard.stats.quarantined = true;
      }
      // Ban lifts this shard out of submit routing and drains its queued
      // work to healthy shards; in-flight retries below route around it
      // via avoid_shard.
      dispatcher_->set_banned(shard.index, true);
    }
  } else {
    shard.fault_streak = 0;
  }

  // Split the batch: engine-faulted requests with retry budget left (and
  // an unexpired deadline) are resubmitted to a different shard; the rest
  // fail right here with the typed error.
  const Clock::time_point now = Clock::now();
  std::vector<Request> terminal;
  std::vector<Request> retry;
  for (Request& r : batch.requests) {
    if (engine_fault && r.attempts < options_.max_retries &&
        !r.expired(now)) {
      retry.push_back(std::move(r));
    } else {
      terminal.push_back(std::move(r));
    }
  }
  batch.requests.clear();
  if (!terminal.empty()) fail_requests(terminal, error, code);
  if (retry.empty()) return;

  // Capped exponential backoff, slept once for the whole batch (every
  // member faulted together): base * 2^attempts, attempts being the most
  // travelled member's count BEFORE this bump.
  int worst_attempts = 0;
  for (Request& r : retry) {
    worst_attempts = std::max(worst_attempts, r.attempts);
    r.attempts += 1;
    r.avoid_shard = shard.index;
    retries_.fetch_add(1);
    tenants_.record_retry(r.tenant);
  }
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      std::min(kRetryBackoffMaxMs,
               kRetryBackoffBaseMs * std::ldexp(1.0, worst_attempts))));
  std::vector<Request> orphaned;
  for (Request& r : retry) {
    // Blocking resubmit (the request was already admitted once — the
    // backpressure debate is over); fails only when shutdown closed the
    // dispatcher, and those orphans get a typed kShutdown below.
    if (dispatcher_->submit_until(r, Clock::time_point::max()) !=
        SubmitResult::kAccepted) {
      orphaned.push_back(std::move(r));
    }
  }
  if (!orphaned.empty()) {
    fail_requests(orphaned,
                  std::make_exception_ptr(Error(
                      "server shut down while retrying a faulted request",
                      ErrorCode::kShutdown)),
                  ErrorCode::kShutdown);
  }
}

bool Server::probe_quarantined(Shard& shard) {
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(kQuarantineProbeIntervalMs));
  if (shut_down_.load() || shard.index >= live_shards_.load()) return false;
  try {
    // A fresh engine, not the sick one: rebuilding resets per-engine state
    // (a chaos engine restarts its fault schedule), which is exactly what
    // "did the fault condition clear?" means in this simulated setting.
    std::shared_ptr<engine::Engine> fresh =
        engine_builder_.build(options_.backend);
    gemm::Mat32 a(1, shard_config_.rows);
    gemm::Mat32 b(shard_config_.rows, 1);
    for (std::int64_t i = 0; i < shard_config_.rows; ++i) {
      a.at(0, i) = 1;
      b.at(i, 0) = 1;
    }
    engine::GemmRequest probe;
    probe.a = &a;
    probe.b = &b;
    probe.k =
        admission_engine_->plan(gemm::GemmShape{1, shard_config_.rows, 1})
            ->best.k;
    probe.want_output = false;
    fresh->run_gemm(probe);
    // Healthy: swap the fresh engine in and rejoin the routing pool.
    install_engine(shard, std::move(fresh));
    return true;
  } catch (...) {
    return false;  // still sick; the worker loop probes again next interval
  }
}

void Server::prepare_mode(Shard& shard, int k, bool stolen) {
  std::lock_guard<std::mutex> lock(shard_stats_mutex_);
  if (shard.stats.current_k == k) {
    // A stolen batch already in this array's mode: the locality-aware
    // steal pass earned its keep — this dispatch skipped the drain an
    // arbitrary-victim steal would likely have paid.
    if (stolen && k != 0) shard.stats.steal_drains_avoided += 1;
    return;
  }
  if (shard.stats.current_k != 0) {
    // A genuine mode switch: drain the pipeline at the new mode's clock,
    // burning leakage but doing no work.  (current_k == 0 — fresh shard or
    // post-inference — configures without a drain to bill.)
    shard.stats.mode_switches += 1;
    const double time_ps = static_cast<double>(options_.reconfig_cycles) *
                           shard.engine->clock().period_ps(k);
    const double leak_mw = options_.energy.leak_mw_per_pe *
                           static_cast<double>(shard_config_.num_pes());
    shard.stats.reconfig_time_ps += time_ps;
    shard.stats.reconfig_energy_pj += leak_mw * time_ps * 1e-3;
  }
  shard.stats.current_k = k;
  // Publish to the dispatcher's locality signal so steal scans can prefer
  // victims whose pending round matches this array's configuration.
  dispatcher_->set_shard_mode(shard.index, k);
}

engine::Engine* Server::engine_for(Shard& shard, const Batch& batch) {
  const std::string& override_name = batch.requests.front().backend;
  if (override_name.empty() || override_name == shard.engine->name()) {
    return shard.engine.get();
  }
  auto it = shard.override_engines.find(override_name);
  if (it == shard.override_engines.end()) {
    it = shard.override_engines
             .emplace(override_name, engine_builder_.build(override_name))
             .first;
  }
  return it->second.get();
}

void Server::execute_gemm_batch(Shard& shard, Batch& batch) {
  const int k = batch.k;
  const Clock::time_point dispatch_time = Clock::now();
  prepare_mode(shard, k, batch.stolen);
  // All batch members share one backend override (serve::compatible), so
  // the whole batch executes on one engine.
  engine::Engine* engine = engine_for(shard, batch);

  // Fuse requests naming the same weight matrix and shape: their activation
  // rows stack along T into one hardware run, so the weight preload (the R
  // cycles per tile) is paid once per fused run instead of once per
  // request.  Order of first appearance is preserved.
  using FuseKey = std::tuple<const gemm::Mat32*, std::int64_t, std::int64_t>;
  std::vector<std::pair<FuseKey, std::vector<std::size_t>>> groups;
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    const Request& r = batch.requests[i];
    const FuseKey key{r.b.get(), r.shape.n, r.shape.m};
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == key; });
    if (it == groups.end()) {
      groups.push_back({key, {i}});
    } else {
      it->second.push_back(i);
    }
  }

  const std::int64_t batch_requests =
      static_cast<std::int64_t>(batch.requests.size());
  std::int64_t runs = 0;
  double batch_time_ps = 0.0;
  double batch_energy_pj = 0.0;
  std::int64_t batch_audits = 0;
  std::int64_t batch_audit_mismatches = 0;
  std::vector<GemmResult> results(batch.requests.size());

  // One hardware run over `members` (indices into batch.requests), filling
  // their results.  Throws what the engine throws, before touching any
  // result or total.
  const auto run_members = [&](std::span<const std::size_t> members) {
    const Request& head = batch.requests[members.front()];
    std::int64_t total_t = 0;
    bool want_output = false;
    bool degraded_run = false;
    for (const std::size_t i : members) {
      total_t += batch.requests[i].shape.t;
      want_output = want_output || batch.requests[i].want_output;
      degraded_run = degraded_run || batch.requests[i].degraded;
    }
    // A group of one runs on its own activations; a larger group stacks
    // its members' row-major A blocks end to end.
    const bool fused = members.size() > 1;
    gemm::Mat32 stacked;
    if (fused) {
      stacked = gemm::Mat32(total_t, head.shape.n);
      std::int32_t* next = stacked.mutable_data();
      for (const std::size_t i : members) {
        const std::vector<std::int32_t>& a = batch.requests[i].a.data();
        next = std::copy(a.begin(), a.end(), next);
      }
    }

    engine::GemmRequest run_request;
    run_request.a = fused ? &stacked : &head.a;
    run_request.b = head.b.get();
    run_request.k = k;
    run_request.want_output = want_output;
    engine::RunResult run = engine->run_gemm(run_request);
    ++runs;
    batch_time_ps += run.cost.time_ps;
    batch_energy_pj += run.cost.energy_pj;

    // Deterministic sampled audit: replay the identical fused run on the
    // cycle-accurate engine and insist on exact agreement — outputs bit
    // for bit, cycles / counters / energy number for number.  A measuring
    // override IS ground truth, so it audits nothing.
    bool audited = false;
    // A degraded fused run sheds its audit: under pressure the replay's
    // cycle-accurate simulation is exactly the capacity being protected.
    if (shard.audit_engine != nullptr && !engine->measures() &&
        !degraded_run) {
      shard.audit_credit += options_.audit_fraction;
      if (shard.audit_credit >= 1.0) {
        shard.audit_credit -= 1.0;
        audited = true;
        engine::GemmRequest replay_request = run_request;
        replay_request.want_output = run.out.has_value();
        const engine::RunResult replay =
            shard.audit_engine->run_gemm(replay_request);
        bool agrees = engine::exactly_equal(replay.cost, run.cost);
        if (agrees && run.out.has_value() && replay.out.has_value()) {
          agrees = (*replay.out == *run.out);
        }
        ++batch_audits;
        if (!agrees) ++batch_audit_mismatches;
      }
    }

    // Split the product (when computed) into one row block per member; a
    // cost-only rider fused with output-wanting requests declined its
    // block, so its GemmResult::out stays empty, as submit_gemm documents.
    // Energy is attributed by each request's share of the fused rows;
    // completion (and thus simulated service time) is the whole fused run
    // for every member.
    std::int64_t row = 0;
    for (const std::size_t i : members) {
      const Request& r = batch.requests[i];
      GemmResult& result = results[i];
      if (run.out.has_value() && r.want_output) {
        if (fused) {
          result.out = gemm::Mat64(r.shape.t, r.shape.m);
          const auto block = run.out->data().begin() + row * r.shape.m;
          std::copy(block, block + r.shape.t * r.shape.m,
                    result.out.mutable_data());
        } else {
          result.out = std::move(*run.out);
        }
      }
      row += r.shape.t;
      result.k = k;
      result.shard = shard.index;
      result.batch_requests = batch_requests;
      result.fused_rows = total_t;
      result.cycles = run.cost.cycles;
      result.stall_cycles = run.cost.stall_cycles;
      result.dram_bytes = run.cost.dram_bytes;
      result.time_ps = run.cost.time_ps;
      result.energy_pj = run.cost.energy_pj * static_cast<double>(r.shape.t) /
                         static_cast<double>(total_t);
      result.queue_ms = ms_between(r.enqueue_time, dispatch_time);
      result.backend = engine->name();
      result.measured = run.measured;
      result.audited = audited;
      result.degraded = r.degraded;
    }
  };

  // Called in a handler: a request whose own run failed validation (a
  // shape no scratchpad plan fits, say) fails alone; any other throw is an
  // engine fault, rethrown to the batch-level retry and quarantine path.
  std::vector<std::exception_ptr> invalid;  // sized on the first failure
  std::int64_t invalid_count = 0;
  const auto fail_alone = [&](std::size_t i) {
    if (code_of(std::current_exception()) != ErrorCode::kInvalidArgument) {
      throw;
    }
    if (invalid.empty()) invalid.resize(batch.requests.size());
    invalid[i] = std::current_exception();
    ++invalid_count;
  };
  for (const auto& [key, members] : groups) {
    try {
      run_members(members);
    } catch (...) {
      if (members.size() == 1) {
        fail_alone(members.front());
        continue;
      }
      if (code_of(std::current_exception()) != ErrorCode::kInvalidArgument) {
        throw;
      }
      // Stacking can raise T past every plan that each member fits alone:
      // each member runs, and is served or failed, on its own.
      for (const std::size_t& i : members) {
        try {
          run_members({&i, 1});
        } catch (...) {
          fail_alone(i);
        }
      }
    }
  }

  {
    // All accounting lands before any client future resolves, so a client
    // that waits on its result always sees the books already balanced.
    std::lock_guard<std::mutex> lock(shard_stats_mutex_);
    shard.stats.batches += 1;
    shard.stats.requests += batch_requests - invalid_count;
    shard.stats.fused_runs += runs;
    shard.stats.audit_runs += batch_audits;
    shard.stats.audit_mismatches += batch_audit_mismatches;
    shard.stats.busy_time_ps += batch_time_ps;
    shard.stats.energy_pj += batch_energy_pj;
    shard.stats.busy_ps_by_mode[k] += batch_time_ps;
  }

  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    Request& r = batch.requests[i];
    if (!invalid.empty() && invalid[i]) {
      fail_requests({&r, 1}, invalid[i], ErrorCode::kInvalidArgument);
      continue;
    }
    GemmResult& result = results[i];
    result.latency_ms = ms_between(r.enqueue_time, Clock::now());
    sample_wait(result.queue_ms);
    // Tenant books use the same row-share as energy, so summing tenants'
    // sim_time reproduces the shards' busy time; the full fused-run time
    // stays visible in GemmResult::time_ps (the request's service time).
    const double time_share =
        result.time_ps * static_cast<double>(r.shape.t) /
        static_cast<double>(result.fused_rows);
    tenants_.record(r.tenant, /*is_inference=*/false, result.latency_ms,
                    result.queue_ms, result.energy_pj, time_share,
                    r.shape.t * r.shape.n * r.shape.m);
    completed_.fetch_add(1);
    r.gemm_promise.set_value(std::move(result));
    settled();
  }
}

void Server::execute_cost_batch(Shard& shard, Batch& batch) {
  const Clock::time_point dispatch_time = Clock::now();
  // No prepare_mode: a cost query is pure planning — it never configures
  // the array, so it neither pays nor bills a reconfiguration drain, and
  // it leaves the shard's published mode (the steal-locality signal)
  // untouched.  All batch members share one backend override
  // (serve::compatible), so one engine answers the whole dispatch.
  engine::Engine* engine = engine_for(shard, batch);

  std::int64_t answered = 0;
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    Request& r = batch.requests[i];
    // The slot is read/settled through a local reference; the shared_ptr
    // stays on the request so a double-settle (if the request were ever
    // replayed) still hits the guard instead of a dead slot.
    BatchSlot& slot = *r.slot;
    std::vector<engine::CostEstimate> results;
    try {
      results = engine->evaluate_batch(slot.shapes(), r.decided_k);
    } catch (...) {
      // Shapes that fail validation fail their own request alone.  On an
      // engine fault the settled requests leave the batch, and only the
      // rest take the batch-level failure path.
      if (code_of(std::current_exception()) != ErrorCode::kInvalidArgument) {
        const auto first = batch.requests.begin();
        batch.requests.erase(first, first + static_cast<std::ptrdiff_t>(i));
        throw;
      }
      fail_requests({&r, 1}, std::current_exception(),
                    ErrorCode::kInvalidArgument);
      continue;
    }
    const std::int64_t count = static_cast<std::int64_t>(results.size());
    const double queue_ms = ms_between(r.enqueue_time, dispatch_time);
    sample_wait(queue_ms);
    // Cost queries perform no simulated hardware work: the tenant books
    // record the serving latency and the query volume (drr_cost = shape
    // count), but zero energy and zero sim time — summing tenants'
    // sim_time must keep reproducing the shards' busy time, and these
    // batches never made an array busy.
    tenants_.record(r.tenant, /*is_inference=*/false,
                    ms_between(r.enqueue_time, Clock::now()), queue_ms,
                    /*energy_pj=*/0.0, /*sim_time_ps=*/0.0, r.drr_cost);
    answered += count;
    completed_.fetch_add(count);
    if (slot.complete(std::move(results))) {
      settled();
    } else {
      completed_.fetch_sub(count);
      promise_double_sets_.fetch_add(1);
      AF_ASSERT(false, "batch slot settled twice (request " << r.id << ")");
    }
  }

  std::lock_guard<std::mutex> lock(shard_stats_mutex_);
  shard.stats.batches += 1;
  shard.stats.requests += answered;
}

void Server::execute_infer_batch(Shard& shard, Batch& batch) {
  const Clock::time_point dispatch_time = Clock::now();
  // Every request in the batch names the same model (serve::compatible), so
  // the report is computed once and fanned to all of them; its energy and
  // time are split across the coalesced requesters (the hardware ran the
  // model once on their shared behalf), so per-tenant books sum to what the
  // shards actually spent.
  const nn::ModelReport report =
      nn::InferenceRunner(shard.engine).run(*batch.requests.front().model);
  const double share = 1.0 / static_cast<double>(batch.requests.size());

  {
    std::lock_guard<std::mutex> lock(shard_stats_mutex_);
    shard.stats.batches += 1;
    shard.stats.requests += static_cast<std::int64_t>(batch.requests.size());
    shard.stats.busy_time_ps += report.arrayflex_time_ps;
    shard.stats.energy_pj += report.arrayflex_energy_pj;
    // Per-layer mode choices leave the array outside any single GEMM mode;
    // the next GEMM batch reconfigures from scratch.
    shard.stats.current_k = 0;
    dispatcher_->set_shard_mode(shard.index, 0);
  }

  for (Request& r : batch.requests) {
    const double queue_ms = ms_between(r.enqueue_time, dispatch_time);
    sample_wait(queue_ms);
    InferenceResult result;
    result.latency_ms = ms_between(r.enqueue_time, Clock::now());
    tenants_.record(r.tenant, /*is_inference=*/true, result.latency_ms,
                    queue_ms, report.arrayflex_energy_pj * share,
                    report.arrayflex_time_ps * share, r.model->total_macs());
    completed_.fetch_add(1);
    result.report = report;
    r.infer_promise->set_value(std::move(result));
    settled();
  }
}

ServerStats Server::stats() const {
  ServerStats out;
  out.submitted = submitted_.load();
  out.completed = completed_.load();
  out.steals = dispatcher_->steals();
  out.scale_ups = scale_ups_.load();
  out.scale_downs = scale_downs_.load();
  out.overload_policy = options_.overload_policy;
  out.overloaded = overloaded_.load();
  out.rejected = rejected_.load();
  out.expired = expired_.load();
  out.engine_faults = engine_faults_.load();
  out.retries = retries_.load();
  out.quarantines = quarantines_.load();
  out.degraded = degraded_.load();
  out.unserved = unserved_.load();
  out.backlog_macs = dispatcher_->approx_cost();
  out.backlog_bytes = dispatcher_->approx_bytes();
  out.promise_double_sets = promise_double_sets_.load();
  out.cost_cache_hits = cost_cache_->hits();
  out.cost_cache_misses = cost_cache_->misses();
  out.reconfig_policy = options_.reconfig_policy;
  {
    std::lock_guard<std::mutex> lock(reconfig_mutex_);
    out.reconfig_stream_switches = reconfig_.switches;
    out.reconfig_holds = reconfig_.holds;
  }
  {
    std::lock_guard<std::mutex> lock(shard_stats_mutex_);
    // live_shards_ is read under the same lock publish_live_set writes it
    // with the flags, so the snapshot's live-flag count always equals
    // live_shards (the invariant publish_live_set documents).
    out.live_shards = live_shards_.load();
    out.shards.reserve(shards_.size());
    for (const auto& shard : shards_) out.shards.push_back(shard->stats);
  }
  out.tenants = tenants_.snapshot();
  return out;
}

}  // namespace af::serve
