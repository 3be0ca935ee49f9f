#include "fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <type_traits>
#include <utility>

#include "util/hysteresis.h"
#include "util/status.h"

namespace af::fleet {
namespace {

using serve::Clock;
using serve::deadline_after;

[[noreturn]] void throw_code(ErrorCode code, const std::string& message) {
  throw Error(message, code);
}

double ms_until(Clock::time_point when, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(when - now).count();
}

}  // namespace

std::string to_string(ServerHealth health) {
  switch (health) {
    case ServerHealth::kHealthy:
      return "healthy";
    case ServerHealth::kUnhealthy:
      return "unhealthy";
    case ServerHealth::kDraining:
      return "draining";
    case ServerHealth::kDead:
      return "dead";
  }
  return "unknown";
}

// One submission's fleet-side state.  Owns what any server needs to serve
// it at any time — a copy of the GEMM operands, or the model — and
// `resolved` is the exactly-once CAS.
template <class R>
struct Fleet::Ticket {
  std::string tenant;
  gemm::Mat32 a;                           // GEMM
  std::shared_ptr<const gemm::Mat32> b;    // GEMM
  std::shared_ptr<const nn::Model> model;  // inference
  serve::SubmitOptions submit;  // deadline_ms recomputed per attempt
  Clock::time_point enqueue;
  Clock::time_point deadline = Clock::time_point::max();
  std::atomic<bool> resolved{false};
  std::atomic<bool> hedged{false};  // claimed by the hedge scan (GEMM only)
  std::atomic<int> failovers{0};
  std::promise<R> promise;
};

// One (ticket, server future) pair awaiting collection; `hedge` marks the
// duplicate half of a hedged pair.
template <class R>
struct Fleet::Attempt {
  TicketPtr<R> ticket;
  std::future<R> future;
  bool hedge = false;
};

struct Fleet::Node {
  int index = -1;
  // Replaced wholesale by restart_server; submit paths copy the
  // shared_ptr under `mutex` and call the server unlocked.
  std::shared_ptr<serve::Server> server;
  ServerHealth health = ServerHealth::kHealthy;
  // On while the probes are failing: update(!ok, ok) per probe, so it flips
  // after unhealthy_after failures and back after healthy_after successes.
  util::Latch probe_failing;
  std::int64_t placed = 0;
  std::int64_t probe_failures = 0;
  std::deque<Pending> pending;
  mutable std::mutex mutex;  // guards everything above (except index)
  std::condition_variable cv;
  std::thread collector;
  std::atomic<bool> stop{false};
};

Fleet::Fleet(std::vector<FleetServerSpec> specs, FleetOptions options)
    : specs_(std::move(specs)),
      options_(std::move(options)),
      router_(options_.router_options) {
  AF_CHECK(!specs_.empty(), "a fleet needs at least one server spec");
  AF_CHECK(options_.router == "affinity",
           "unknown router \"" << options_.router
                               << "\"; the fleet has one placement, "
                                  "\"affinity\"");
  AF_CHECK(options_.max_failovers >= 0,
           "max_failovers must be non-negative, got " << options_.max_failovers);
  AF_CHECK(options_.hedge_ms >= 0.0,
           "hedge_ms must be non-negative, got " << options_.hedge_ms);
  AF_CHECK(options_.probe_timeout_ms > 0.0,
           "probe_timeout_ms must be positive, got " << options_.probe_timeout_ms);
  AF_CHECK(options_.unhealthy_after >= 1 && options_.healthy_after >= 1,
           "probe streak thresholds must be at least 1");
  AF_CHECK(options_.block_retry_ms > 0.0,
           "block_retry_ms must be positive, got " << options_.block_retry_ms);
  overload_policy_ = serve::parse_overload_policy(options_.overload_policy);

  nodes_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    auto node = std::make_unique<Node>();
    node->index = static_cast<int>(i);
    node->probe_failing =
        util::Latch(options_.unhealthy_after, options_.healthy_after);
    node->server =
        std::make_shared<serve::Server>(specs_[i].config, specs_[i].options);
    nodes_.push_back(std::move(node));
  }
  for (auto& node : nodes_) {
    Node* raw = node.get();
    raw->collector = std::thread([this, raw] { collector_loop(*raw); });
  }
  if (options_.probe_interval_ms > 0.0) {
    prober_ = std::thread([this] { prober_loop(); });
  }
}

Fleet::~Fleet() { shutdown(); }

void Fleet::shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (shut_down_.exchange(true)) return;
  admission_closed_.store(true);
  {
    std::lock_guard<std::mutex> lock(prober_mutex_);
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  // Graceful half: every live server drains and SERVES its queue, so the
  // collectors resolve the outstanding tickets with values, not failovers
  // (admission is closed, so no new pending entries appear anywhere).
  for (auto& node : nodes_) {
    std::shared_ptr<serve::Server> server;
    {
      std::lock_guard<std::mutex> lock(node->mutex);
      server = node->server;
    }
    if (server) server->shutdown();
  }
  for (auto& node : nodes_) {
    node->stop.store(true);
    node->cv.notify_all();
  }
  for (auto& node : nodes_) {
    if (node->collector.joinable()) node->collector.join();
  }
}

ServerHealth Fleet::health(int server) const {
  AF_CHECK(server >= 0 && server < num_servers(),
           "server index " << server << " out of range [0, " << num_servers()
                           << ")");
  std::lock_guard<std::mutex> lock(nodes_[server]->mutex);
  return nodes_[server]->health;
}

// --- placement -------------------------------------------------------------

std::vector<ServerLoad> Fleet::snapshot_loads(int exclude) const {
  std::vector<ServerLoad> loads(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = *nodes_[i];
    std::lock_guard<std::mutex> lock(node.mutex);
    loads[i].server = static_cast<int>(i);
    const bool routable = node.health == ServerHealth::kHealthy &&
                          node.server != nullptr &&
                          static_cast<int>(i) != exclude &&
                          !admission_closed_.load();
    loads[i].routable = routable;
    loads[i].backlog_macs = routable ? node.server->backlog_cost_macs() : 0;
  }
  return loads;
}

template <class R>
void Fleet::submit_to(int server, const TicketPtr<R>& ticket, PlaceKind kind) {
  Node& node = *nodes_[server];
  std::shared_ptr<serve::Server> srv;
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    if (node.health != ServerHealth::kHealthy || !node.server) {
      throw_code(ErrorCode::kUnavailable,
                 (detail::MessageBuilder() << "server " << server << " is "
                                           << to_string(node.health)).str());
    }
    srv = node.server;
  }
  serve::SubmitOptions submit = ticket->submit;
  // Per-server admission never blocks: a full queue throws kOverloaded and
  // placement moves on; the fleet-level "block" policy owns the waiting.
  submit.admission_timeout_ms = 0.0;
  if (ticket->deadline != Clock::time_point::max()) {
    const double remaining = ms_until(ticket->deadline, Clock::now());
    if (remaining <= 0.0) {
      throw_code(ErrorCode::kDeadlineExceeded,
                 "deadline exhausted before placement");
    }
    submit.deadline_ms = remaining;
  }
  Attempt<R> attempt{ticket, {}, kind == PlaceKind::kHedge};
  if constexpr (std::is_same_v<R, serve::GemmResult>) {
    attempt.future =
        srv->submit_gemm(ticket->tenant, ticket->a, ticket->b, submit);
  } else {
    attempt.future =
        srv->submit_inference(ticket->tenant, ticket->model, submit);
  }
  // Admission succeeded: count the attempt BEFORE publishing the pending
  // entry — once published, another node's collector can resolve the
  // ticket and a stats() reader woken by that must already see this.
  if (kind == PlaceKind::kFailover) {
    failovers_.fetch_add(1, std::memory_order_relaxed);
  } else if (kind == PlaceKind::kHedge) {
    hedges_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    node.placed += 1;
    node.pending.push_back(std::move(attempt));
  }
  node.cv.notify_all();
}

namespace {

// Candidate order behind the router's first choice: every other routable
// slot, least-loaded first — the spill sequence when servers reject.
std::vector<int> spill_candidates(const std::vector<ServerLoad>& loads,
                                  int first) {
  std::vector<int> rest;
  for (const ServerLoad& load : loads) {
    if (load.routable && load.server != first) rest.push_back(load.server);
  }
  std::sort(rest.begin(), rest.end(), [&loads](int a, int b) {
    if (loads[a].backlog_macs != loads[b].backlog_macs) {
      return loads[a].backlog_macs < loads[b].backlog_macs;
    }
    return a < b;
  });
  return rest;
}

}  // namespace

template <class R>
int Fleet::try_place(const TicketPtr<R>& ticket, int exclude, PlaceKind kind,
                     bool* overloaded_everywhere) {
  *overloaded_everywhere = false;
  const std::vector<ServerLoad> loads = snapshot_loads(exclude);
  int first = -1;
  {
    std::lock_guard<std::mutex> lock(router_mutex_);
    first = router_.place(affinity_key(ticket->tenant), loads);
  }
  if (first < 0) return -1;
  std::vector<int> candidates{first};
  for (const int slot : spill_candidates(loads, first)) {
    candidates.push_back(slot);
  }
  int overload_rejections = 0;
  int other_failures = 0;
  std::exception_ptr invalid;
  for (const int slot : candidates) {
    try {
      submit_to(slot, ticket, kind);
      if (overload_rejections > 0) {
        rerouted_overload_.fetch_add(1, std::memory_order_relaxed);
      }
      return slot;
    } catch (const Error& e) {
      if (e.code() == ErrorCode::kDeadlineExceeded) throw;
      if (e.code() == ErrorCode::kOverloaded) {
        ++overload_rejections;
      } else if (e.code() == ErrorCode::kInvalidArgument) {
        // A healthy slot that cannot serve this request (a mode only other
        // slots support, say); it neither died nor is it overloaded.
        if (!invalid) invalid = std::current_exception();
      } else {
        // kUnavailable / kShutdown race: the slot died between the load
        // snapshot and the submit — simply not a candidate any more.
        ++other_failures;
      }
    }
  }
  if (overload_rejections == 0 && invalid) std::rethrow_exception(invalid);
  *overloaded_everywhere = overload_rejections > 0 && other_failures == 0;
  return -1;
}

// --- client entry points ---------------------------------------------------

template <class R>
std::future<R> Fleet::admit(const std::string& tenant,
                            const serve::SubmitOptions& submit,
                            TicketPtr<R> ticket) {
  if (admission_closed_.load()) {
    throw_code(ErrorCode::kShutdown, "submit on a shut-down fleet");
  }
  AF_CHECK(!std::isnan(submit.admission_timeout_ms),
           "admission_timeout_ms must not be NaN");
  ticket->tenant = tenant;
  ticket->submit = submit;
  ticket->enqueue = Clock::now();
  if (submit.deadline_ms > 0.0) {
    ticket->deadline = deadline_after(ticket->enqueue, submit.deadline_ms);
  }
  std::future<R> future = ticket->promise.get_future();

  submitted_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    tenant_books_[tenant].submitted += 1;
  }
  const Clock::time_point admission_deadline =
      submit.admission_timeout_ms >= 0.0
          ? deadline_after(ticket->enqueue, submit.admission_timeout_ms)
          : Clock::time_point::max();
  [[maybe_unused]] bool degraded_already = false;
  try {
    while (true) {
      bool overloaded_everywhere = false;
      if (try_place(ticket, /*exclude=*/-1, PlaceKind::kInitial,
                    &overloaded_everywhere) >= 0) {
        return future;
      }
      if (!overloaded_everywhere) {
        throw_code(ErrorCode::kUnavailable, "no routable server in the fleet");
      }
      if (overload_policy_ == serve::OverloadPolicy::kReject) {
        throw_code(ErrorCode::kOverloaded,
                   "every routable server rejected the request");
      }
      if constexpr (std::is_same_v<R, serve::GemmResult>) {
        if (overload_policy_ == serve::OverloadPolicy::kDegrade) {
          // Shed fidelity, not the request: one cost-only retry.
          if (degraded_already) {
            throw_code(ErrorCode::kOverloaded,
                       "every routable server rejected, even cost-only");
          }
          ticket->submit.want_output = false;
          ticket->submit.backend.clear();
          degraded_already = true;
          degraded_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      }
      // "block" — and "degrade" for an inference, which has no cost-only
      // form: retry placement with backoff until space frees.
      if (Clock::now() >= admission_deadline) {
        throw_code(ErrorCode::kOverloaded,
                   "fleet admission timed out under overload");
      }
      if (ticket->deadline != Clock::time_point::max() &&
          Clock::now() >= ticket->deadline) {
        throw_code(ErrorCode::kDeadlineExceeded,
                   "deadline exhausted while blocked on admission");
      }
      if (admission_closed_.load()) {
        throw_code(ErrorCode::kShutdown,
                   "fleet shut down while blocked on admission");
      }
      std::this_thread::sleep_until(
          deadline_after(Clock::now(), options_.block_retry_ms));
    }
  } catch (...) {
    // Nothing was admitted: unwind the books so a thrown submit is not a
    // permanently dangling "submitted" entry.
    submitted_.fetch_sub(1);
    {
      std::lock_guard<std::mutex> lock(tenants_mutex_);
      tenant_books_[tenant].submitted -= 1;
    }
    throw;
  }
}

std::future<serve::GemmResult> Fleet::submit_gemm(
    const std::string& tenant, gemm::Mat32 a,
    std::shared_ptr<const gemm::Mat32> b, const serve::SubmitOptions& submit) {
  AF_CHECK(b != nullptr, "submit_gemm needs a weight matrix");
  auto ticket = std::make_shared<Ticket<serve::GemmResult>>();
  ticket->a = std::move(a);
  ticket->b = std::move(b);
  return admit(tenant, submit, std::move(ticket));
}

std::future<serve::InferenceResult> Fleet::submit_inference(
    const std::string& tenant, std::shared_ptr<const nn::Model> model,
    const serve::SubmitOptions& submit) {
  AF_CHECK(model != nullptr, "submit_inference needs a model");
  auto ticket = std::make_shared<Ticket<serve::InferenceResult>>();
  ticket->model = std::move(model);
  return admit(tenant, submit, std::move(ticket));
}

// --- collection: resolve, fail over, hedge ---------------------------------

bool Fleet::failover_safe(const std::exception_ptr& eptr) {
  try {
    std::rethrow_exception(eptr);
  } catch (const Error& e) {
    // The three codes that certify NO result was delivered to anyone:
    // kUnavailable (killed/drained before running — never executed),
    // kShutdown (admission race with a dying server), kEngineFault (the
    // server's own retries exhausted; the run threw, produced nothing).
    return e.code() == ErrorCode::kUnavailable ||
           e.code() == ErrorCode::kShutdown ||
           e.code() == ErrorCode::kEngineFault;
  } catch (...) {
    return false;
  }
}

void Fleet::collector_loop(Node& node) {
  std::unique_lock<std::mutex> lock(node.mutex);
  while (true) {
    bool handled = false;
    for (std::size_t i = 0; i < node.pending.size(); ++i) {
      const bool ready = std::visit(
          [](const auto& attempt) {
            return attempt.future.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready;
          },
          node.pending[i]);
      if (!ready) continue;
      Pending taken = std::move(node.pending[i]);
      node.pending.erase(node.pending.begin() +
                         static_cast<std::ptrdiff_t>(i));
      lock.unlock();
      std::visit([this, &node](auto& attempt) { handle_ready(node, attempt); },
                 taken);
      lock.lock();
      handled = true;
      break;  // re-scan: the deque may have changed while unlocked
    }
    if (handled) continue;

    if (options_.hedge_ms > 0.0 && !admission_closed_.load()) {
      // Claim hedge candidates under the lock, submit them outside it
      // (submitting locks ANOTHER node's mutex; holding ours too would
      // order locks both ways across collectors).
      std::vector<TicketPtr<serve::GemmResult>> to_hedge;
      const Clock::time_point now = Clock::now();
      const Clock::time_point horizon = deadline_after(now, options_.hedge_ms);
      for (const Pending& entry : node.pending) {
        // Only GEMMs hedge: a losing duplicate still runs, and for an
        // inference that is the whole model again on a second server.
        const auto* attempt = std::get_if<Attempt<serve::GemmResult>>(&entry);
        if (attempt == nullptr || attempt->hedge) continue;
        Ticket<serve::GemmResult>& ticket = *attempt->ticket;
        if (ticket.resolved.load()) continue;
        const bool slow =
            now >= deadline_after(ticket.enqueue, options_.hedge_ms);
        const bool near_deadline =
            ticket.deadline != Clock::time_point::max() &&
            ticket.deadline <= horizon;
        if (!slow && !near_deadline) continue;
        if (ticket.hedged.exchange(true)) continue;
        to_hedge.push_back(attempt->ticket);
      }
      if (!to_hedge.empty()) {
        lock.unlock();
        for (const auto& ticket : to_hedge) issue_hedge(ticket, node.index);
        lock.lock();
        continue;
      }
    }

    if (node.stop.load() && node.pending.empty()) break;
    node.cv.wait_for(lock, std::chrono::microseconds(200));
  }
}

template <class R>
void Fleet::handle_ready(Node& node, Attempt<R>& attempt) {
  try {
    resolve_ok(attempt.ticket, attempt.future.get(), attempt.hedge);
  } catch (...) {
    std::exception_ptr error = std::current_exception();
    if (failover_safe(error) && !attempt.ticket->resolved.load()) {
      failover(attempt.ticket, node.index, error);
    } else {
      resolve_err(attempt.ticket, error);
    }
  }
}

template <class R>
void Fleet::failover(const TicketPtr<R>& ticket, int from,
                     std::exception_ptr error) {
  while (true) {
    if (ticket->resolved.load()) return;  // a hedge landed first
    if (admission_closed_.load()) break;
    if (ticket->deadline != Clock::time_point::max() &&
        Clock::now() >= ticket->deadline) {
      error = std::make_exception_ptr(
          Error("deadline exhausted during failover",
                ErrorCode::kDeadlineExceeded));
      break;
    }
    if (ticket->failovers.fetch_add(1) >= options_.max_failovers) break;
    try {
      bool overloaded_everywhere = false;
      const int slot =
          try_place(ticket, from, PlaceKind::kFailover, &overloaded_everywhere);
      if (slot >= 0) return;  // re-admitted; the new collector owns it
      if (!overloaded_everywhere) break;  // no survivor to take it
      // All survivors overloaded: back off briefly and try again on the
      // remaining failover budget rather than dropping a live request.
      std::this_thread::sleep_until(
          deadline_after(Clock::now(), options_.block_retry_ms));
    } catch (const Error&) {
      break;  // deadline tripped, or no survivor takes the request as valid
    }
  }
  resolve_err(ticket, error);
}

void Fleet::issue_hedge(const TicketPtr<serve::GemmResult>& ticket, int from) {
  if (ticket->resolved.load() || admission_closed_.load()) return;
  try {
    bool overloaded_everywhere = false;
    const int slot =
        try_place(ticket, from, PlaceKind::kHedge, &overloaded_everywhere);
    (void)slot;  // counted inside submit_to, before the entry publishes
    // Placement failed: the original attempt is still in flight, so the
    // ticket is NOT at risk — just unhedged (hedged stays claimed; one
    // shot per ticket keeps hedge load bounded).
  } catch (const Error&) {
    // Deadline tripped during placement (or no other slot takes the
    // request); the original attempt's own handling delivers the verdict.
  }
}

// --- resolution (the exactly-once CAS) -------------------------------------

void Fleet::book_resolution(const std::string& tenant, bool ok) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  TenantBook& book = tenant_books_[tenant];
  if (ok) {
    book.ok += 1;
  } else {
    book.err += 1;
  }
}

template <class R>
void Fleet::resolve_ok(const TicketPtr<R>& ticket, R result, bool from_hedge) {
  if (ticket->resolved.exchange(true)) {
    // The other half of a hedged pair got here first: this result is the
    // cancelled loser.
    duplicate_results_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (from_hedge) hedge_wins_.fetch_add(1, std::memory_order_relaxed);
  resolved_ok_.fetch_add(1, std::memory_order_relaxed);
  book_resolution(ticket->tenant, /*ok=*/true);
  try {
    ticket->promise.set_value(std::move(result));
  } catch (const std::future_error&) {
    resolve_double_sets_.fetch_add(1, std::memory_order_relaxed);
  }
}

template <class R>
void Fleet::resolve_err(const TicketPtr<R>& ticket, std::exception_ptr error) {
  if (ticket->resolved.exchange(true)) return;  // lost to a hedge — fine
  resolved_err_.fetch_add(1, std::memory_order_relaxed);
  book_resolution(ticket->tenant, /*ok=*/false);
  try {
    ticket->promise.set_exception(std::move(error));
  } catch (const std::future_error&) {
    resolve_double_sets_.fetch_add(1, std::memory_order_relaxed);
  }
}

// --- health probing --------------------------------------------------------

void Fleet::prober_loop() {
  // The probe payload: a tiny cost-only GEMM any backend answers in
  // microseconds — proves admission AND a worker dispatch round-trip.
  const auto probe_b = std::make_shared<const gemm::Mat32>(2, 2);
  const gemm::Mat32 probe_a(1, 2);
  std::unique_lock<std::mutex> wait_lock(prober_mutex_);
  while (!admission_closed_.load()) {
    prober_cv_.wait_until(
        wait_lock, deadline_after(Clock::now(), options_.probe_interval_ms));
    if (admission_closed_.load()) break;
    for (auto& node_ptr : nodes_) {
      Node& node = *node_ptr;
      std::shared_ptr<serve::Server> server;
      {
        std::lock_guard<std::mutex> lock(node.mutex);
        if (node.health == ServerHealth::kDead ||
            node.health == ServerHealth::kDraining || !node.server) {
          continue;  // explicit lifecycle states are not probe territory
        }
        server = node.server;
      }
      probes_sent_.fetch_add(1, std::memory_order_relaxed);
      bool ok = false;
      try {
        serve::SubmitOptions submit;
        submit.want_output = false;
        submit.deadline_ms = options_.probe_timeout_ms;
        submit.admission_timeout_ms = 0.0;
        std::future<serve::GemmResult> future =
            server->submit_gemm("__fleet_probe__", probe_a, probe_b, submit);
        if (future.wait_until(deadline_after(
                Clock::now(), options_.probe_timeout_ms)) ==
            std::future_status::ready) {
          future.get();  // throws on kDeadlineExceeded etc.
          ok = true;
        }
        // A future we time out on is simply abandoned: the server resolves
        // it eventually (unpause / quiesce) and nobody is waiting.
      } catch (...) {
        ok = false;
      }
      bool flipped_down = false;
      bool flipped_up = false;
      {
        std::lock_guard<std::mutex> lock(node.mutex);
        if (node.health == ServerHealth::kDead ||
            node.health == ServerHealth::kDraining) {
          continue;  // lifecycle moved on while we probed
        }
        if (!ok) node.probe_failures += 1;
        const bool was_unhealthy = node.health == ServerHealth::kUnhealthy;
        const bool unhealthy = node.probe_failing.update(!ok, ok);
        node.health =
            unhealthy ? ServerHealth::kUnhealthy : ServerHealth::kHealthy;
        flipped_down = unhealthy && !was_unhealthy;
        flipped_up = !unhealthy && was_unhealthy;
      }
      if (!ok) probe_failures_.fetch_add(1, std::memory_order_relaxed);
      if (flipped_down) {
        unhealthy_transitions_.fetch_add(1, std::memory_order_relaxed);
      }
      if (flipped_up) recoveries_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

// --- failpoints & lifecycle ------------------------------------------------

void Fleet::kill_server(int server) {
  AF_CHECK(server >= 0 && server < num_servers(),
           "server index " << server << " out of range [0, " << num_servers()
                           << ")");
  Node& node = *nodes_[server];
  std::shared_ptr<serve::Server> victim;
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    if (node.health == ServerHealth::kDead) return;
    node.health = ServerHealth::kDead;
    victim = node.server;  // kept for post-mortem stats(); never routed to
  }
  // Quiesce OUTSIDE the node lock: it joins shard workers, and the
  // collector needs the lock to pick up the kUnavailable futures this
  // produces and fail them over.
  if (victim) victim->quiesce();
}

void Fleet::stall_server(int server, bool stalled) {
  AF_CHECK(server >= 0 && server < num_servers(),
           "server index " << server << " out of range [0, " << num_servers()
                           << ")");
  Node& node = *nodes_[server];
  std::shared_ptr<serve::Server> srv;
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    srv = node.server;
  }
  if (srv) srv->pause_serving(stalled);
}

void Fleet::drain_server(int server, double flush_timeout_ms) {
  AF_CHECK(server >= 0 && server < num_servers(),
           "server index " << server << " out of range [0, " << num_servers()
                           << ")");
  AF_CHECK(flush_timeout_ms >= 0.0,
           "flush_timeout_ms must be non-negative, got " << flush_timeout_ms);
  Node& node = *nodes_[server];
  std::shared_ptr<serve::Server> victim;
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    if (node.health == ServerHealth::kDead) return;
    node.health = ServerHealth::kDraining;  // no new placements land here
    victim = node.server;
  }
  // Flush: the server keeps serving, so its pending set drains through the
  // collector naturally; give it the budget before quiescing the rest.
  const Clock::time_point flush_deadline =
      deadline_after(Clock::now(), flush_timeout_ms);
  while (Clock::now() < flush_deadline) {
    {
      std::lock_guard<std::mutex> lock(node.mutex);
      if (node.pending.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Whatever is still queued fails kUnavailable and fails over — the
  // no-loss half of a rolling restart.
  if (victim) victim->quiesce();
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    node.health = ServerHealth::kDead;
  }
}

void Fleet::restart_server(int server) {
  AF_CHECK(server >= 0 && server < num_servers(),
           "server index " << server << " out of range [0, " << num_servers()
                           << ")");
  Node& node = *nodes_[server];
  std::lock_guard<std::mutex> lock(node.mutex);
  AF_CHECK(node.health == ServerHealth::kDead,
           "restart_server(" << server << ") on a " << to_string(node.health)
                             << " server; kill or drain it first");
  // The old server's promises were all resolved by quiesce, so dropping
  // the last shared_ptr here destroys it safely; any of its futures still
  // in `pending` stay valid (futures outlive their promise).
  node.server = std::make_shared<serve::Server>(
      specs_[static_cast<std::size_t>(server)].config,
      specs_[static_cast<std::size_t>(server)].options);
  node.probe_failing.reset();
  node.health = ServerHealth::kHealthy;
}

// --- stats -----------------------------------------------------------------

FleetStats Fleet::stats() const {
  FleetStats out;
  out.submitted = submitted_.load();
  out.resolved_ok = resolved_ok_.load();
  out.resolved_err = resolved_err_.load();
  out.failovers = failovers_.load();
  out.hedges = hedges_.load();
  out.hedge_wins = hedge_wins_.load();
  out.duplicate_results = duplicate_results_.load();
  out.rerouted_overload = rerouted_overload_.load();
  out.degraded = degraded_.load();
  out.probes_sent = probes_sent_.load();
  out.probe_failures = probe_failures_.load();
  out.unhealthy_transitions = unhealthy_transitions_.load();
  out.recoveries = recoveries_.load();
  out.resolve_double_sets = resolve_double_sets_.load();
  for (const auto& node_ptr : nodes_) {
    Node& node = *node_ptr;
    FleetServerSummary summary;
    std::shared_ptr<serve::Server> server;
    {
      std::lock_guard<std::mutex> lock(node.mutex);
      summary.server = node.index;
      summary.health = node.health;
      summary.placed = node.placed;
      summary.probe_failures = node.probe_failures;
      server = node.server;
    }
    if (server) summary.stats = server->stats();
    out.servers.push_back(std::move(summary));
  }
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    out.tenants = tenant_books_;
  }
  return out;
}

}  // namespace af::fleet
