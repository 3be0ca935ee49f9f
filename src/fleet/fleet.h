// Fault-tolerant fleet: N serve::Servers behind a health-checked router.
//
//   clients ──submit──▶ Fleet ──place──▶ serve::Server[0..N)   (possibly
//                        │ (Router: hash home, p2c spill)         heterogeneous)
//                        ├─ prober thread: tiny cost-only probes per server;
//                        │  a util::Latch drives healthy <-> unhealthy
//                        ├─ per-server collector thread: waits the server
//                        │  futures, resolves tickets, fails over, hedges
//                        └─ failpoints: kill_server (crash), stall_server,
//                           drain_server (rolling restart), restart_server
//
// THE headline contract, pinned by the chaos stress gate in
// tests/fleet_test.cpp: no submitted request is ever lost or double-served,
// even when whole servers die mid-flight.  Every submit_gemm future
// resolves exactly once — with a result bit-identical to reference_gemm,
// or a typed af::Error.  The mechanism is a Ticket per submission:
//
//   * The ticket owns copies of the operands, so it can be re-submitted to
//     any server at any time.
//   * Resolution is a single atomic CAS on the ticket: whichever server
//     future lands first (original, failover re-admit, or hedge duplicate)
//     wins; the losers are counted (FleetStats::duplicate_results) and
//     dropped.  FleetStats::resolve_double_sets stays 0 by construction.
//   * Failover rides serve::Server::quiesce()'s guarantee: a request
//     failed with kUnavailable was NEVER executed, so re-admitting it on a
//     survivor cannot double-serve.  kEngineFault after the server's own
//     retry budget and kShutdown races are equally safe — no result was
//     delivered.  Deadline and failover budgets travel with the ticket.
//   * Hedging (hedge_ms > 0): when a ticket has been pending longer than
//     hedge_ms and is still unresolved — e.g. stuck behind a stalled
//     server — the collector submits a duplicate to a DIFFERENT server.
//     First result wins; the loser is cancelled by the CAS and counted.
//
// Health: a prober thread runs tiny cost-only GEMMs against every
// routable server each probe_interval_ms; unhealthy_after consecutive
// probe failures (timeout or error) mark the server unhealthy — pulled
// from routing while its in-flight work continues — and healthy_after
// consecutive successes re-admit it.  kill/drain transitions are
// explicit: kDead servers never rejoin until restart_server.
//
// Overload composes across the fleet: a server rejecting with kOverloaded
// (or kInvalidArgument, e.g. a mode only other slots support) just
// redirects placement to the next-best routable server; only when EVERY
// routable server rejects does the fleet-level policy fire — "reject"
// fails the submit, "block" retries placement with backoff until space
// frees, "degrade" re-places a GEMM cost-only.  When no server was
// overloaded, the first kInvalidArgument is the client's error.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "arch/config.h"
#include "fleet/router.h"
#include "serve/server.h"

namespace af::fleet {

// One server slot's build recipe.  Fleets may be heterogeneous: different
// array geometries and supported modes, backends, shard bounds, pressure
// limits (grow_at / shrink_at / overload_at) and overload policies per
// slot.  A request some slots reject as invalid (say, a mode only others
// support) is placed on one that accepts it.
struct FleetServerSpec {
  arch::ArrayConfig config = arch::ArrayConfig::square(16);
  serve::ServerOptions options;
};

struct FleetOptions {
  // The one placement's old registry name, kept so existing option sets
  // still compile; anything but "affinity" throws kInvalidArgument.  Pure
  // hashing is router_options.spill_factor = +inf.
  std::string router = "affinity";
  RouterOptions router_options;

  // Health probing.  probe_interval_ms <= 0 disables the prober thread
  // entirely (health then only changes via kill/drain/restart).
  double probe_interval_ms = 0.0;
  // Wall-clock budget of one probe; a probe that neither completes nor
  // fails within this window counts as a failure (how a stalled server is
  // detected: its queue accepts the probe but no worker ever serves it).
  double probe_timeout_ms = 50.0;
  int unhealthy_after = 3;  // consecutive probe failures -> unroutable
  int healthy_after = 2;    // consecutive probe successes -> routable again

  // Failover budget per ticket: how many times a never-executed request
  // (kUnavailable / kShutdown / post-retry kEngineFault) may be re-placed
  // on a surviving server before its error is delivered to the client.
  int max_failovers = 3;
  // Hedged submits: a GEMM ticket still unresolved hedge_ms after
  // submission — or within hedge_ms of its deadline — gets a duplicate on a
  // different server (first result wins, loser cancelled by the resolution
  // CAS and counted).  0 disables hedging.
  double hedge_ms = 0.0;
  // Fleet-level overload policy (serve::parse_overload_policy registry
  // key), applied only when EVERY routable server rejected the placement:
  // "reject" throws kOverloaded, "block" retries placement with backoff,
  // "degrade" re-places a GEMM cost-only (an inference blocks instead).
  std::string overload_policy = "reject";
  // Backoff between fleet-level "block" placement retries.
  double block_retry_ms = 0.5;
};

enum class ServerHealth { kHealthy, kUnhealthy, kDraining, kDead };
std::string to_string(ServerHealth health);

// Per-tenant fleet books: every submission lands in ok or err exactly once.
struct TenantBook {
  std::int64_t submitted = 0;
  std::int64_t ok = 0;
  std::int64_t err = 0;
};

struct FleetServerSummary {
  int server = -1;
  ServerHealth health = ServerHealth::kHealthy;
  std::int64_t placed = 0;   // tickets whose (re)submissions landed here
  std::int64_t probe_failures = 0;
  serve::ServerStats stats;  // empty-ish for slots currently dead
};

struct FleetStats {
  std::int64_t submitted = 0;     // tickets accepted by Fleet::submit_*
  std::int64_t resolved_ok = 0;   // tickets resolved with a value
  std::int64_t resolved_err = 0;  // tickets resolved with a typed error
  std::int64_t failovers = 0;     // re-placements of never-executed work
  std::int64_t hedges = 0;        // duplicate submissions issued
  std::int64_t hedge_wins = 0;    // tickets whose hedge landed first
  std::int64_t duplicate_results = 0;  // losing results dropped by the CAS
  std::int64_t rerouted_overload = 0;  // placements diverted off a rejecting server
  std::int64_t degraded = 0;      // fleet-level degrade re-placements
  std::int64_t probes_sent = 0;
  std::int64_t probe_failures = 0;
  std::int64_t unhealthy_transitions = 0;  // healthy -> unhealthy flips
  std::int64_t recoveries = 0;             // unhealthy -> healthy flips
  // Tickets resolved more than once — a broken-contract bug; == 0 always.
  std::int64_t resolve_double_sets = 0;
  std::vector<FleetServerSummary> servers;
  std::map<std::string, TenantBook> tenants;

  // Book-balance identity of the no-loss contract:
  // submitted == resolved_ok + resolved_err once the fleet is drained.
  std::int64_t resolved() const { return resolved_ok + resolved_err; }
};

class Fleet {
 public:
  // Builds one serve::Server per spec.  At least one spec is required.
  explicit Fleet(std::vector<FleetServerSpec> specs, FleetOptions options = {});
  ~Fleet();  // shutdown()

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Routed GEMM submission (see serve::Server::submit_gemm for the
  // request semantics).  The fleet COPIES `a` and keeps `b` alive in the
  // ticket so the request can fail over or hedge to any server.  Throws
  // af::Error(kInvalidArgument) when no routable server accepts the
  // request as well-formed, kUnavailable when no server is routable,
  // kOverloaded when every server that could take it rejected under the
  // "reject" fleet policy, and kShutdown after shutdown().
  std::future<serve::GemmResult> submit_gemm(
      const std::string& tenant, gemm::Mat32 a,
      std::shared_ptr<const gemm::Mat32> b,
      const serve::SubmitOptions& submit = {});

  // Routed whole-model inference: the model is placed on ONE server, where
  // one shard runs it.  Throws and fails over like GEMMs when the serving
  // server dies before executing it; the "degrade" fleet policy waits as
  // "block" does (an inference has no cost-only form).  Inference is never
  // hedged: the losing half of a hedge still runs, and for an inference
  // that is a second run of the whole model, billed on a second server, to
  // save one queue wait.
  std::future<serve::InferenceResult> submit_inference(
      const std::string& tenant, std::shared_ptr<const nn::Model> model,
      const serve::SubmitOptions& submit = {});

  // --- failpoints & lifecycle (the chaos toolkit's server-scoped hooks) ---
  // Simulated crash: marks the slot kDead, quiesces the server (queued
  // work fails kUnavailable and fails over to survivors).  Idempotent.
  void kill_server(int server);
  // Simulated stall: the server's shard workers stop picking up batches;
  // queued tickets eventually hedge (hedge_ms) or the prober marks the
  // slot unhealthy.  stall_server(i, false) resumes.
  void stall_server(int server, bool stalled = true);
  // Graceful no-loss drain for a rolling restart: the slot stops taking
  // new placements (kDraining), waits up to flush_timeout_ms for its
  // pending tickets to resolve, then quiesces the remainder (which fail
  // over) and marks the slot kDead.
  void drain_server(int server, double flush_timeout_ms = 1e3);
  // Rebuilds a kDead slot's server from its spec and marks it healthy —
  // the second half of a rolling restart.
  void restart_server(int server);

  int num_servers() const { return static_cast<int>(nodes_.size()); }
  ServerHealth health(int server) const;

  FleetStats stats() const;

  // Closes admission, shuts every live server down gracefully (their
  // queues drain), collects every outstanding ticket, joins all fleet
  // threads.  Idempotent; the destructor calls it.
  void shutdown();

 private:
  // One submission's fleet-side state and one (ticket, server future)
  // attempt awaiting collection; R is serve::GemmResult or
  // serve::InferenceResult.  Every step below is one template over R.
  template <class R>
  struct Ticket;
  template <class R>
  struct Attempt;
  template <class R>
  using TicketPtr = std::shared_ptr<Ticket<R>>;
  using Pending = std::variant<Attempt<serve::GemmResult>,
                               Attempt<serve::InferenceResult>>;
  struct Node;

  // Snapshot of the loads the router places over.  `exclude` (>= 0) is
  // forced unroutable — the failover path's "not the server that just
  // died".
  std::vector<ServerLoad> snapshot_loads(int exclude = -1) const;

  // Why a placement attempt was made.  Threaded down to submit_to so the
  // matching stat (failovers_, hedges_) is bumped BEFORE the pending
  // entry is published: once published, another collector can resolve the
  // ticket and wake a stats() reader who must already see the counter.
  enum class PlaceKind { kInitial, kFailover, kHedge };

  // Stamps and books a new ticket, then places it under the fleet overload
  // policy; unbooks and rethrows when nothing admitted it.
  template <class R>
  std::future<R> admit(const std::string& tenant,
                       const serve::SubmitOptions& submit, TicketPtr<R> ticket);
  // Places and submits one attempt: router choice first, then every other
  // routable server if the choice rejects.  Returns the slot it landed on,
  // or -1 with `overloaded_everywhere` set when every server that could
  // take the request rejected it as overloaded (nothing submitted), or -1
  // with it clear when nothing was routable at all.  Throws the first
  // kInvalidArgument when no server accepted and none was overloaded.
  template <class R>
  int try_place(const TicketPtr<R>& ticket, int exclude, PlaceKind kind,
                bool* overloaded_everywhere);
  // Submits the ticket to `server` and enqueues the attempt on that node's
  // collector.  Throws what the server's submit throws.
  template <class R>
  void submit_to(int server, const TicketPtr<R>& ticket, PlaceKind kind);

  // One node's collector loop: polls pending futures, resolves tickets
  // (CAS), fails over never-executed work, issues hedges.
  void collector_loop(Node& node);
  template <class R>
  void handle_ready(Node& node, Attempt<R>& attempt);
  // Re-places a never-executed ticket on a survivor; resolves the ticket
  // with `error` when budget/deadline/routability forbid it.
  template <class R>
  void failover(const TicketPtr<R>& ticket, int from,
                std::exception_ptr error);
  // Submits the hedge duplicate of a slow GEMM ticket to a server != `from`
  // (the collector's hedge scan already claimed ticket->hedged).
  void issue_hedge(const TicketPtr<serve::GemmResult>& ticket, int from);

  void prober_loop();
  // True when the error held by `eptr` means the request was never
  // executed and no result was delivered — safe to re-admit elsewhere.
  static bool failover_safe(const std::exception_ptr& eptr);

  // Ticket resolution (the CAS).  Winner updates fleet + tenant books.
  template <class R>
  void resolve_ok(const TicketPtr<R>& ticket, R result, bool from_hedge);
  template <class R>
  void resolve_err(const TicketPtr<R>& ticket, std::exception_ptr error);
  void book_resolution(const std::string& tenant, bool ok);

  std::vector<FleetServerSpec> specs_;
  FleetOptions options_;
  serve::OverloadPolicy overload_policy_ = serve::OverloadPolicy::kReject;
  Router router_;
  std::mutex router_mutex_;  // Router::place is not thread-safe
  std::vector<std::unique_ptr<Node>> nodes_;
  std::thread prober_;
  std::mutex prober_mutex_;
  std::condition_variable prober_cv_;

  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> resolved_ok_{0};
  std::atomic<std::int64_t> resolved_err_{0};
  std::atomic<std::int64_t> failovers_{0};
  std::atomic<std::int64_t> hedges_{0};
  std::atomic<std::int64_t> hedge_wins_{0};
  std::atomic<std::int64_t> duplicate_results_{0};
  std::atomic<std::int64_t> rerouted_overload_{0};
  std::atomic<std::int64_t> degraded_{0};
  std::atomic<std::int64_t> probes_sent_{0};
  std::atomic<std::int64_t> probe_failures_{0};
  std::atomic<std::int64_t> unhealthy_transitions_{0};
  std::atomic<std::int64_t> recoveries_{0};
  std::atomic<std::int64_t> resolve_double_sets_{0};
  mutable std::mutex tenants_mutex_;
  std::map<std::string, TenantBook> tenant_books_;

  std::atomic<bool> admission_closed_{false};
  std::mutex shutdown_mutex_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace af::fleet
