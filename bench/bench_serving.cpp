// PERF — multi-tenant serving layer throughput/latency tracker.
//
// Three studies, all recorded in BENCH_serving.json so the serving layer's
// perf trajectory is tracked across PRs alongside BENCH_sim_throughput.json
// and BENCH_netlist_sim.json:
//
//   1. closed_loop — 4 concurrent client threads with a bounded in-flight
//      window across a (shard count x max batch) grid: sustained requests/s
//      plus wall-clock p50/p99/mean latency per point.  Batching wins show
//      up twice: fewer fused hardware runs (weight preload amortized) and
//      fewer mode switches.
//
//   2. backend_comparison — the engine facade's fidelity/throughput trade
//      at equal shard count: the same cost-estimation workload
//      (want_output = false) served by the "analytic" backend vs the
//      "cycle" backend.  The analytic engine answers from closed forms
//      pinned exactly to the simulator, so the speedup is free fidelity-
//      wise; the ratio is the headline number the engine redesign exists
//      for (expected: well above 50x).
//
//   3. open_loop — a Poisson arrival-rate sweep (open loop: the generator
//      never waits for completions), producing the saturation curve of
//      offered load vs achieved throughput and p50/p99 latency.  Below
//      saturation p99 stays flat; past it the queue fills, the bounded
//      queue throttles the generator, and latency explodes — the classic
//      hockey stick.
//
//   5. overload_sweep — the admission-control study: measure the closed-loop
//      capacity of a 2-shard server on real (want_output = true) GEMMs, then
//      offer Poisson traffic at {0.5, 1, 2, 4}x that capacity under each
//      overload policy.  The queue is sized far above the offered burst so
//      shedding can only come from the policy, never from queue-full
//      throttling of the generator.  "block" admits everything and lets the
//      backlog stretch admitted p99 without bound; "reject" fails fast with
//      af::Error(kOverloaded) and keeps admitted p99 flat; "degrade" admits
//      everything but serves cost-only (near-free on the analytic backend)
//      while the pressure window holds, which also keeps p99 bounded.
//
//   6. fleet_sweep — the fleet layer's cost-of-robustness study: the same
//      closed-loop load against fleet::Fleet at 1/2/4 servers, then the
//      multi-server points again with one server killed mid-run.  The books
//      must still balance — every request resolves OK, the killed server's
//      stranded queue failing over to survivors — so the kill shows up as a
//      failover count and a client-side latency blip, never as lost work.
//
//   7. transformer_mix — the runtime-reconfiguration study: transformer
//      serving traffic (serve/transformer_traffic.h) at prefill:decode step
//      mixes 1:0, 1:8 and 1:32 on one shard, served under static pipeline
//      modes k = 1/2/4 and under the admission-time ReconfigPolicy registry
//      ("argmin" and "sticky").  The stream is identical across policies:
//      an arrival ramp of full prefills (fat, shallow-collapse territory),
//      then a long decode regime (T = 1, deep-collapse territory) with the
//      late sessions' CHUNKED prefills interleaved one GEMM at a time —
//      the continuous-batching pattern that makes a per-request argmin
//      thrash.  The headline metric is simulated requests/s over
//      busy + reconfiguration time, so mode-switch drains (priced at a
//      deliberately meaty reconfig_cycles) are first-class: "sticky" must
//      beat every static k on the decode-heavy mixes while paying an order
//      of magnitude fewer drains than "argmin", and no point may lose a
//      request.
//
//   4. contended_submit — dispatch scaling under producer pressure: 1/2/4/8
//      producer threads (distinct tenants, evenly spread over the home
//      deques, at a constant total in-flight window) hammering cost-only
//      traffic at an 8-shard server, whose per-shard deques keep producers
//      on different homes from contending and wake parked workers one per
//      submit.  Wall-clock req/s plus a CPU-time proxy (requests per
//      process-CPU-second) are recorded; the proxy is the steadier signal
//      on a small runner.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <deque>
#include <mutex>
#include <utility>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.h"
#include "gemm/matrix.h"
#include "nn/transformer.h"
#include "serve/dispatcher.h"
#include "serve/server.h"
#include "serve/transformer_traffic.h"
#include "util/rng.h"
#include "util/status.h"

namespace {

using namespace af;

// ---- 1. closed-loop grid ---------------------------------------------------

struct Point {
  int shards = 1;
  int max_batch = 1;
  int clients = 0;
  std::string backend;
  std::int64_t requests = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  std::int64_t fused_runs = 0;
  std::int64_t mode_switches = 0;
  double energy_pj = 0.0;
  double requests_per_s() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

Point run_point(int shards, int max_batch, int clients, int per_client,
                const std::string& backend, bool want_output,
                std::int64_t t_rows = 8, std::int64_t n = 64,
                std::int64_t m = 48) {
  serve::ServerOptions opts;
  opts.num_shards = shards;
  opts.max_batch = max_batch;
  opts.queue_capacity = 512;
  opts.backend = backend;
  // Serving latencies here are sub-millisecond: a tight histogram range
  // keeps the p50/p99 buckets meaningfully narrow (~24 us).
  opts.latency_hist_max_ms = 100.0;
  serve::Server server(arch::ArrayConfig::square(16), opts);

  Rng weight_rng(2026);
  auto weights = std::make_shared<gemm::Mat32>(
      gemm::random_matrix(weight_rng, n, m, -40, 40));

  // Activations come from a small pre-generated pool: per-request RNG
  // would throttle the client loop and understate the fast backends.
  Rng act_rng(7007);
  std::vector<gemm::Mat32> activation_pool;
  for (int i = 0; i < 8; ++i) {
    activation_pool.push_back(gemm::random_matrix(act_rng, t_rows, n, -40, 40));
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Each client keeps a window of requests in flight — a loaded
      // closed-loop workload, so the scheduler actually sees a backlog to
      // coalesce (a one-at-a-time client never exercises batching).
      constexpr int kWindow = 8;
      std::vector<std::future<serve::GemmResult>> in_flight;
      for (int i = 0; i < per_client; ++i) {
        // Alternate pipeline modes so batching also has mode switches to
        // save; every request shares the weight matrix, so same-mode
        // neighbours fuse.
        const int k = (i % 4 == 3) ? 2 : 1;
        in_flight.push_back(server.submit_gemm(
            "bench",
            activation_pool[static_cast<std::size_t>((c + i) % 8)], weights,
            {.k = k, .want_output = want_output}));
        if (in_flight.size() >= kWindow) {
          in_flight.front().get();
          in_flight.erase(in_flight.begin());
        }
      }
      for (auto& f : in_flight) f.get();
    });
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const serve::ServerStats stats = server.stats();
  AF_CHECK(stats.completed == static_cast<std::int64_t>(clients) * per_client,
           "serving bench lost requests");
  Point p;
  p.shards = shards;
  p.max_batch = max_batch;
  p.clients = clients;
  p.backend = backend;
  p.requests = stats.completed;
  p.seconds = seconds;
  AF_CHECK(stats.tenants.size() == 1, "expected the single bench tenant");
  p.p50_ms = stats.tenants[0].p50_latency_ms;
  p.p99_ms = stats.tenants[0].p99_latency_ms;
  p.mean_ms = stats.tenants[0].mean_latency_ms;
  p.energy_pj = stats.tenants[0].energy_pj;
  for (const serve::ShardSnapshot& s : stats.shards) {
    p.fused_runs += s.fused_runs;
    p.mode_switches += s.mode_switches;
  }
  return p;
}

// ---- 2. analytic vs cycle at equal shard count -----------------------------

struct BackendComparison {
  Point analytic;
  Point cycle;
  double speedup() const {
    return cycle.requests_per_s() > 0
               ? analytic.requests_per_s() / cycle.requests_per_s()
               : 0.0;
  }
};

BackendComparison run_backend_comparison(bool quick) {
  // Cost-estimation traffic (want_output = false) on a heavier GEMM, so
  // the cycle backend pays full simulation while the analytic backend
  // answers from closed forms.  Equal shard count on both sides.
  const int shards = 2;
  const int clients = 2;
  BackendComparison cmp;
  cmp.analytic = run_point(shards, /*max_batch=*/1, clients,
                           /*per_client=*/quick ? 500 : 2000, "analytic",
                           /*want_output=*/false, /*t=*/64, /*n=*/256,
                           /*m=*/128);
  cmp.cycle = run_point(shards, /*max_batch=*/1, clients,
                        /*per_client=*/quick ? 6 : 16, "cycle",
                        /*want_output=*/false, /*t=*/64, /*n=*/256,
                        /*m=*/128);
  return cmp;
}

// ---- contended submit: dispatch scaling under producer pressure ------------

struct ContendedPoint {
  int producers = 0;
  // Client batch size.  0 = the legacy scalar submit_gemm path (one future
  // per request); >= 1 = submit_gemm_batch with that many shapes per call
  // (batch 1 isolates the per-call overhead of the batched plumbing, 16 and
  // 256 amortize the queue hop and hit the SoA evaluate_batch kernel).
  // `requests` always counts SHAPES, so req/s is comparable across rows.
  int batch = 0;
  std::int64_t requests = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU time — the single-core scaling proxy
  double requests_per_s() const {
    return wall_s > 0 ? static_cast<double>(requests) / wall_s : 0.0;
  }
  double requests_per_cpu_s() const {
    return cpu_s > 0 ? static_cast<double>(requests) / cpu_s : 0.0;
  }
};

// A tenant name routing to home deque `home` on a `shards`-wide dispatcher
// (probed through the exposed affinity hash).  The contended
// study assigns producer tenants round-robin over the homes so it measures
// LOCK CONTENTION, not hash luck — with 8 producers on 4 shards every home
// deque carries exactly two tenants, the balanced topology the affinity
// design intends (an unlucky std::hash draw can otherwise pile 4 tenants
// on one deque and starve another, which is load skew, not dispatch cost).
std::string tenant_for_home(int index, int home, int shards) {
  for (int j = 0;; ++j) {
    serve::Request probe;
    probe.kind = serve::RequestKind::kGemm;
    probe.tenant =
        "producer-" + std::to_string(index) + "-" + std::to_string(j);
    if (serve::affinity_hash(probe) % static_cast<std::size_t>(shards) ==
        static_cast<std::size_t>(home)) {
      return probe.tenant;
    }
  }
}

ContendedPoint run_contended_once(int producers, int total_requests,
                                  int batch) {
  serve::ServerOptions opts;
  opts.num_shards = 8;
  opts.max_batch = 32;
  opts.queue_capacity = 1024;
  opts.backend = "analytic";
  opts.latency_hist_max_ms = 100.0;
  serve::Server server(arch::ArrayConfig::square(16), opts);

  Rng weight_rng(4242);
  auto weights = std::make_shared<gemm::Mat32>(
      gemm::random_matrix(weight_rng, 32, 32, -40, 40));
  Rng act_rng(808);
  std::vector<gemm::Mat32> activation_pool;
  for (int i = 0; i < 4; ++i) {
    activation_pool.push_back(gemm::random_matrix(act_rng, 4, 32, -40, 40));
  }
  // Batched producers submit shapes, not operands: a small rotation of
  // distinct shapes so the cost cache sees the serving steady state (a few
  // hot shapes answered from memo) rather than one degenerate key.
  std::vector<gemm::GemmShape> shape_pool;
  for (std::int64_t t = 1; t <= 8; ++t) shape_pool.push_back({32, 32, t});

  const int per_producer = total_requests / producers;
  const std::clock_t cpu0 = std::clock();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int c = 0; c < producers; ++c) {
    threads.emplace_back([&, c] {
      // Distinct tenant per producer, spread over the per-shard deques by
      // affinity, so producers on different homes never share a lock.
      const std::string tenant =
          tenant_for_home(c, c % opts.num_shards, opts.num_shards);
      // Constant TOTAL in-flight window across the producer sweep: the
      // study varies submitter-thread count at fixed offered concurrency,
      // so a point's delta is dispatch contention, not a deeper backlog.
      const int kWindow = std::max(1, 256 / producers);
      if (batch > 0) {
        // Batched path: one submit_gemm_batch call per `batch` shapes, a
        // bounded window of outstanding tickets.  The window counts CALLS
        // (tickets), so total outstanding shapes grows with the batch size
        // — which is the point: one ticket is one queue hop regardless.
        std::vector<gemm::GemmShape> shapes(static_cast<std::size_t>(batch));
        const int calls = per_producer / batch;
        std::vector<serve::BatchTicket> in_flight;
        for (int i = 0; i < calls; ++i) {
          for (int j = 0; j < batch; ++j) {
            shapes[static_cast<std::size_t>(j)] =
                shape_pool[static_cast<std::size_t>((c + i + j) % 8)];
          }
          serve::SubmitOptions sub;
          sub.k = 1;
          in_flight.push_back(server.submit_gemm_batch(tenant, shapes, sub));
          if (in_flight.size() >= static_cast<std::size_t>(kWindow)) {
            in_flight.front().get();
            in_flight.erase(in_flight.begin());
          }
        }
        for (auto& t : in_flight) t.get();
        return;
      }
      std::vector<std::future<serve::GemmResult>> in_flight;
      for (int i = 0; i < per_producer; ++i) {
        in_flight.push_back(server.submit_gemm(
            tenant, activation_pool[static_cast<std::size_t>((c + i) % 4)],
            weights, {.k = 1, .want_output = false}));
        if (in_flight.size() >= kWindow) {
          in_flight.front().get();
          in_flight.erase(in_flight.begin());
        }
      }
      for (auto& f : in_flight) f.get();
    });
  }
  for (auto& t : threads) t.join();

  ContendedPoint p;
  p.producers = producers;
  p.batch = batch;
  const std::int64_t per_producer_shapes =
      batch > 0 ? static_cast<std::int64_t>(per_producer / batch) * batch
                : per_producer;
  p.requests = per_producer_shapes * producers;
  p.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  p.cpu_s = static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC;
  AF_CHECK(server.stats().completed == p.requests,
           "contended bench lost requests");
  return p;
}

// Best of three trials per point: a dozen runnable threads on a small
// runner make single trials swing with scheduler luck; the best trial is
// the standard low-noise estimator of what the code can sustain.
ContendedPoint run_contended(int producers, int total_requests,
                             int batch = 0) {
  ContendedPoint best;
  for (int trial = 0; trial < 3; ++trial) {
    ContendedPoint p = run_contended_once(producers, total_requests, batch);
    if (trial == 0 || p.requests_per_s() > best.requests_per_s()) best = p;
  }
  return best;
}

// ---- 3. open-loop Poisson arrival sweep ------------------------------------

struct OpenLoopPoint {
  double offered_rps = 0.0;
  // 0 = legacy scalar submit_gemm; >= 1 = submit_gemm_batch with this many
  // shapes per Poisson arrival (offered_rps still counts SHAPES per second,
  // so the arrival rate of calls is offered_rps / batch).
  int batch = 0;
  std::int64_t requests = 0;
  double seconds = 0.0;
  double achieved_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
};

OpenLoopPoint run_open_loop(double offered_rps, int total_requests,
                            int batch = 0) {
  serve::ServerOptions opts;
  opts.num_shards = 2;
  opts.max_batch = 8;
  opts.queue_capacity = 1024;
  opts.backend = "analytic";
  opts.latency_hist_max_ms = 100.0;  // see run_point
  serve::Server server(arch::ArrayConfig::square(16), opts);

  Rng weight_rng(31);
  auto weights = std::make_shared<gemm::Mat32>(
      gemm::random_matrix(weight_rng, 64, 48, -40, 40));

  Rng rng(9000);
  std::vector<gemm::Mat32> activation_pool;
  for (int i = 0; i < 8; ++i) {
    activation_pool.push_back(gemm::random_matrix(rng, 8, 64, -40, 40));
  }
  // Batched arrivals carry shapes only (cost queries); rotate a few
  // distinct keys so the memo cache sees steady-state traffic, not one key.
  std::vector<gemm::GemmShape> shape_pool;
  for (std::int64_t t = 1; t <= 8; ++t) shape_pool.push_back({48, 64, t});

  std::deque<std::future<serve::GemmResult>> in_flight;
  std::deque<serve::BatchTicket> tickets;
  const auto t0 = std::chrono::steady_clock::now();
  auto next_arrival = t0;
  const int arrivals =
      batch > 0 ? std::max(1, total_requests / batch) : total_requests;
  std::vector<gemm::GemmShape> shapes(
      static_cast<std::size_t>(std::max(1, batch)));
  for (int i = 0; i < arrivals; ++i) {
    // Exponential inter-arrival gap: -ln(1 - U) / rate seconds.  A batched
    // arrival delivers `batch` shapes at once, so the call rate is the
    // offered SHAPE rate divided by the batch size.
    const double call_rps =
        batch > 0 ? offered_rps / batch : offered_rps;
    const double gap_s = -std::log(1.0 - rng.next_double()) / call_rps;
    next_arrival +=
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(gap_s));
    std::this_thread::sleep_until(next_arrival);
    // Open loop: submit without waiting.  (Once the bounded queue fills —
    // past saturation — submit itself blocks; that back-pressure IS the
    // saturation signal and caps the achieved rate.)
    if (batch > 0) {
      for (int j = 0; j < batch; ++j) {
        shapes[static_cast<std::size_t>(j)] =
            shape_pool[static_cast<std::size_t>((i + j) % 8)];
      }
      tickets.push_back(server.submit_gemm_batch("openloop", shapes));
      while (!tickets.empty() && tickets.front().ready()) {
        tickets.front().get();
        tickets.pop_front();
      }
      continue;
    }
    in_flight.push_back(server.submit_gemm(
        "openloop", activation_pool[static_cast<std::size_t>(i % 8)], weights,
        {.k = 0, .want_output = false}));
    while (!in_flight.empty() &&
           in_flight.front().wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      in_flight.front().get();
      in_flight.pop_front();
    }
  }
  for (auto& f : in_flight) f.get();
  for (auto& t : tickets) t.get();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const serve::ServerStats stats = server.stats();
  OpenLoopPoint p;
  p.offered_rps = offered_rps;
  p.batch = batch;
  p.requests = stats.completed;
  p.seconds = seconds;
  p.achieved_rps =
      seconds > 0 ? static_cast<double>(stats.completed) / seconds : 0.0;
  AF_CHECK(stats.tenants.size() == 1, "expected the single open-loop tenant");
  p.p50_ms = stats.tenants[0].p50_latency_ms;
  p.p99_ms = stats.tenants[0].p99_latency_ms;
  p.mean_ms = stats.tenants[0].mean_latency_ms;
  return p;
}

// ---- 5. overload sweep: admission policies under offered pressure ----------

struct OverloadPoint {
  std::string policy;
  double load_x = 0.0;          // offered / measured capacity
  double offered_rps = 0.0;
  std::int64_t offered = 0;     // generator attempts (admitted + shed)
  std::int64_t admitted = 0;    // completions, full-fidelity or degraded
  std::int64_t shed = 0;        // submissions refused with kOverloaded
  std::int64_t degraded = 0;    // served cost-only under pressure
  double seconds = 0.0;         // submit window + drain
  double goodput_rps = 0.0;     // full-fidelity completions per second
  double p50_ms = 0.0;          // admitted-request latency only
  double p99_ms = 0.0;
};

OverloadPoint run_overload(const std::string& policy, double capacity_rps,
                           double load_x, bool quick) {
  serve::ServerOptions opts;
  opts.num_shards = 2;
  opts.max_batch = 8;
  // Far above any burst the sweep offers: back-pressure on the generator
  // would silently turn "block" into rate limiting and hide the backlog
  // this study exists to expose.
  opts.queue_capacity = 1 << 15;
  opts.backend = "analytic";
  opts.overload_policy = policy;
  opts.overload_at = {.depth = 16.0, .wait_p99_ms = 5.0};
  // The block policy's backlogged p99 reaches seconds; the default
  // latency_hist_max_ms (10 s) keeps it from clipping.
  serve::Server server(arch::ArrayConfig::square(16), opts);

  Rng weight_rng(1123);
  auto weights = std::make_shared<gemm::Mat32>(
      gemm::random_matrix(weight_rng, 256, 128, -40, 40));
  Rng rng(4507 + static_cast<std::uint64_t>(load_x * 16));
  std::vector<gemm::Mat32> activation_pool;
  for (int i = 0; i < 8; ++i) {
    activation_pool.push_back(gemm::random_matrix(rng, 64, 256, -40, 40));
  }

  const double offered_rps = capacity_rps * load_x;
  const double window_s = quick ? 0.25 : 1.0;
  const int total = std::max(100, static_cast<int>(offered_rps * window_s));

  std::deque<std::future<serve::GemmResult>> in_flight;
  std::int64_t shed = 0;
  const auto t0 = std::chrono::steady_clock::now();
  auto next_arrival = t0;
  for (int i = 0; i < total; ++i) {
    const double gap_s = -std::log(1.0 - rng.next_double()) / offered_rps;
    next_arrival +=
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(gap_s));
    std::this_thread::sleep_until(next_arrival);
    try {
      in_flight.push_back(server.submit_gemm(
          "overload", activation_pool[static_cast<std::size_t>(i % 8)],
          weights, {.k = 0, .want_output = true}));
    } catch (const Error& e) {
      if (e.code() != ErrorCode::kOverloaded) throw;
      ++shed;  // the reject policy refusing at admission — the open loop
               // keeps offering at the same rate regardless
    }
    while (!in_flight.empty() &&
           in_flight.front().wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      in_flight.front().get();
      in_flight.pop_front();
    }
  }
  for (auto& f : in_flight) f.get();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const serve::ServerStats stats = server.stats();
  AF_CHECK(stats.rejected == shed, "overload sweep shed accounting drifted");
  OverloadPoint p;
  p.policy = policy;
  p.load_x = load_x;
  p.offered_rps = offered_rps;
  p.offered = total;
  p.admitted = stats.completed;
  p.shed = shed;
  p.degraded = stats.degraded;
  p.seconds = seconds;
  p.goodput_rps =
      seconds > 0
          ? static_cast<double>(stats.completed - stats.degraded) / seconds
          : 0.0;
  if (!stats.tenants.empty()) {
    p.p50_ms = stats.tenants[0].p50_latency_ms;
    p.p99_ms = stats.tenants[0].p99_latency_ms;
  }
  return p;
}

// ---- 6. fleet sweep: server count x mid-run kill ---------------------------

struct FleetPoint {
  int servers = 0;
  bool killed = false;          // server 0 killed halfway through the run
  std::int64_t requests = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;          // client-side submit -> resolve latency
  double p99_ms = 0.0;
  std::int64_t failovers = 0;
  std::int64_t resolved_ok = 0;
  std::int64_t resolved_err = 0;
  double requests_per_s() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

FleetPoint run_fleet_point(int servers, bool kill_one, int clients,
                           int per_client) {
  std::vector<fleet::FleetServerSpec> specs;
  for (int s = 0; s < servers; ++s) {
    fleet::FleetServerSpec spec;
    spec.options.num_shards = 1;
    spec.options.max_batch = 8;
    spec.options.queue_capacity = 512;
    spec.options.backend = "analytic";
    spec.options.latency_hist_max_ms = 100.0;  // see run_point
    specs.push_back(spec);
  }
  fleet::FleetOptions fopts;
  // No prober: the kill is an explicit failpoint, so health changes are
  // deterministic and the sweep measures failover, not detection latency.
  fopts.probe_interval_ms = 0.0;
  fleet::Fleet fl(std::move(specs), fopts);

  Rng weight_rng(6161);
  auto weights = std::make_shared<gemm::Mat32>(
      gemm::random_matrix(weight_rng, 64, 48, -40, 40));
  Rng act_rng(515);
  std::vector<gemm::Mat32> activation_pool;
  for (int i = 0; i < 8; ++i) {
    activation_pool.push_back(gemm::random_matrix(act_rng, 8, 64, -40, 40));
  }

  const std::int64_t total =
      static_cast<std::int64_t>(clients) * per_client;
  std::atomic<std::int64_t> submitted{0};
  std::mutex latency_mutex;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(total));

  // The killer stalls server 0 once half the load is in and kills it as
  // soon as work is stranded in its queue, so the strand-and-failover path
  // always does real work.  (Killed unstalled, an idle server 0 died with an
  // empty queue.)  The deadline only guards against a hang.
  std::thread killer;
  if (kill_one) {
    killer = std::thread([&] {
      while (submitted.load(std::memory_order_relaxed) < total / 2) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      fl.stall_server(0);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(1);
      while (fl.stats().servers[0].stats.backlog_macs == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      fl.kill_server(0);
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Distinct tenant per client so the affinity router actually spreads
      // the load over the fleet (one tenant would home on one server).
      const std::string tenant = "fleet-" + std::to_string(c);
      constexpr int kWindow = 8;
      std::deque<std::pair<std::future<serve::GemmResult>,
                           std::chrono::steady_clock::time_point>> in_flight;
      std::vector<double> local_ms;
      local_ms.reserve(static_cast<std::size_t>(per_client));
      auto harvest = [&](bool block) {
        while (!in_flight.empty() &&
               (block || in_flight.front().first.wait_for(
                             std::chrono::seconds(0)) ==
                             std::future_status::ready)) {
          in_flight.front().first.get();
          local_ms.push_back(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() -
                                 in_flight.front().second)
                                 .count());
          in_flight.pop_front();
          block = false;  // blocked for one slot; drain the rest lazily
        }
      };
      for (int i = 0; i < per_client; ++i) {
        serve::SubmitOptions sub;
        sub.k = (i % 4 == 3) ? 2 : 1;
        in_flight.emplace_back(
            fl.submit_gemm(tenant,
                           activation_pool[static_cast<std::size_t>(
                               (c + i) % 8)],
                           weights, sub),
            std::chrono::steady_clock::now());
        submitted.fetch_add(1, std::memory_order_relaxed);
        harvest(in_flight.size() >= kWindow);
      }
      harvest(true);
      while (!in_flight.empty()) harvest(true);
      std::lock_guard<std::mutex> lock(latency_mutex);
      latencies_ms.insert(latencies_ms.end(), local_ms.begin(),
                          local_ms.end());
    });
  }
  for (auto& t : threads) t.join();
  if (killer.joinable()) killer.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const fleet::FleetStats stats = fl.stats();
  // The headline contract, checked on every sweep point: nothing lost.
  AF_CHECK(stats.submitted == total, "fleet sweep lost submissions");
  AF_CHECK(stats.resolved() == stats.submitted,
           "fleet sweep books do not balance");
  AF_CHECK(stats.resolved_ok == total,
           "fleet sweep: a request failed instead of failing over");
  AF_CHECK(!kill_one || stats.failovers > 0,
           "fleet sweep: the kill stranded no work, so nothing failed over");

  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto quantile = [&](double q) {
    if (latencies_ms.empty()) return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(latencies_ms.size() - 1));
    return latencies_ms[idx];
  };
  FleetPoint p;
  p.servers = servers;
  p.killed = kill_one;
  p.requests = stats.resolved_ok;
  p.seconds = seconds;
  p.p50_ms = quantile(0.5);
  p.p99_ms = quantile(0.99);
  p.failovers = stats.failovers;
  p.resolved_ok = stats.resolved_ok;
  p.resolved_err = stats.resolved_err;
  return p;
}

// ---- 7. transformer traffic-mix: static k vs runtime reconfiguration -------

struct MixPoint {
  std::string mix;     // prefill:decode step ratio, e.g. "1:8"
  std::string policy;  // "static-k1".."static-k4", "argmin", "sticky"
  std::int64_t requests = 0;
  double wall_s = 0.0;
  double busy_ms = 0.0;      // simulated execution time (all shards)
  double reconfig_ms = 0.0;  // simulated drain time (all shards)
  std::int64_t mode_switches = 0;
  std::int64_t fused_runs = 0;
  std::int64_t stream_switches = 0;  // sticky policy: switches it chose
  std::int64_t holds = 0;            // sticky policy: drains it declined
  double p99_ms = 0.0;               // wall-clock, closed-loop generator
  // Served requests per SIMULATED second: the drain tax and the
  // wrong-mode tax land in the same denominator, so a policy only wins
  // here by genuinely spending less array time per request.
  double sim_requests_per_s() const {
    const double s = (busy_ms + reconfig_ms) * 1e-3;
    return s > 0 ? static_cast<double>(requests) / s : 0.0;
  }
};

// One traffic stream per (mix, session count), identical for every policy:
// 1. Arrival ramp — the EARLY half of the sessions prefill their full
//    `ramp_seq`-token prompts back to back (a sustained fat regime; any
//    static deep-collapse mode bleeds here).
// 2. Decode regime — sessions * decode_per_prefill decode steps (T = 1,
//    sustained deep-collapse regime; any static shallow mode bleeds here),
//    with the LATE sessions' follow-up turns — short `followup_seq`-token
//    prompts against the already-warm KV cache, split into
//    `chunk_seq`-token chunks — interleaved ONE GEMM AT A TIME between
//    decode steps: chunked prefill under continuous batching.  Those
//    isolated fatter GEMMs are the hysteresis test: per-request argmin
//    pays two drains around each one, "sticky" holds the stream mode and
//    serves them slightly off-optimal.
// All sessions share one weight bundle (one model, many streams), so
// same-phase decode steps carry identical B pointers and fuse.
std::vector<serve::PhaseGemm> build_mix_stream(
    const serve::TransformerWeights& weights, int sessions,
    int decode_per_prefill, std::int64_t ramp_seq, std::int64_t followup_seq,
    std::int64_t chunk_seq, Rng& rng) {
  std::vector<serve::PhaseGemm> stream;
  const int early = decode_per_prefill > 0 ? (sessions + 1) / 2 : sessions;
  for (int s = 0; s < early; ++s) {
    std::vector<serve::PhaseGemm> pass =
        serve::prefill_gemms(weights, ramp_seq, rng);
    for (serve::PhaseGemm& g : pass) stream.push_back(std::move(g));
  }
  if (decode_per_prefill <= 0) return stream;

  std::vector<serve::PhaseGemm> decodes;
  const int steps = sessions * decode_per_prefill;
  for (int i = 0; i < steps; ++i) {
    std::vector<serve::PhaseGemm> step = serve::decode_gemms(weights, rng);
    for (serve::PhaseGemm& g : step) decodes.push_back(std::move(g));
  }
  std::vector<serve::PhaseGemm> chunks;
  for (int s = early; s < sessions; ++s) {
    for (std::int64_t done = 0; done < followup_seq; done += chunk_seq) {
      std::vector<serve::PhaseGemm> pass = serve::prefill_gemms(
          weights, std::min(chunk_seq, followup_seq - done), rng);
      for (serve::PhaseGemm& g : pass) chunks.push_back(std::move(g));
    }
  }
  const std::size_t gap =
      chunks.empty() ? decodes.size() + 1
                     : std::max<std::size_t>(1, decodes.size() / chunks.size());
  std::size_t ci = 0;
  for (std::size_t i = 0; i < decodes.size(); ++i) {
    stream.push_back(std::move(decodes[i]));
    if ((i + 1) % gap == 0 && ci < chunks.size()) {
      stream.push_back(std::move(chunks[ci++]));
    }
  }
  while (ci < chunks.size()) stream.push_back(std::move(chunks[ci++]));
  return stream;
}

// static_k > 0 pins every request to that mode (policy label is cosmetic);
// static_k == 0 submits with k = 0 and lets opts.reconfig_policy decide.
MixPoint run_transformer_mix(const std::string& mix, const std::string& policy,
                             int static_k, int decode_per_prefill,
                             int sessions) {
  serve::ServerOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 8;
  opts.queue_capacity = 512;
  opts.backend = "analytic";
  opts.latency_hist_max_ms = 100.0;
  // Price reconfiguration like the hardware it models: drain the deep
  // transparent pipeline AND redistribute the per-column configuration
  // bits.  The default (rows + cols) is a rounding error next to these
  // GEMMs; 2048 cycles makes the switch-vs-hold trade a real decision.
  opts.reconfig_cycles = 2048;
  if (static_k == 0) {
    opts.reconfig_policy = policy;
    opts.reconfig_switch_margin = 4.0;
  }
  serve::Server server(arch::ArrayConfig::square(16), opts);

  nn::TransformerConfig tc;
  tc.d_model = 64;
  tc.n_heads = 2;
  tc.d_ff = 256;
  tc.n_blocks = 1;
  // Fixed seed: every policy serves the bit-identical stream.
  Rng rng(4242);
  const serve::TransformerWeights weights =
      serve::make_transformer_weights(tc, /*kv_len=*/512, rng);
  std::vector<serve::PhaseGemm> stream = build_mix_stream(
      weights, sessions, decode_per_prefill, /*ramp_seq=*/512,
      /*followup_seq=*/64, /*chunk_seq=*/32, rng);

  const auto t0 = std::chrono::steady_clock::now();
  // Bounded in-flight window: deep enough that same-phase decode steps
  // overlap in the backlog (fusion + batching stay live), shallow enough
  // that the admission order the policies see is the stream order.
  constexpr std::size_t kWindow = 16;
  std::vector<std::future<serve::GemmResult>> in_flight;
  for (serve::PhaseGemm& g : stream) {
    in_flight.push_back(server.submit_gemm(
        "mix", std::move(g.a), g.b, {.k = static_k, .want_output = true}));
    if (in_flight.size() >= kWindow) {
      in_flight.front().get();
      in_flight.erase(in_flight.begin());
    }
  }
  for (auto& f : in_flight) f.get();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const serve::ServerStats stats = server.stats();
  AF_CHECK(stats.completed == static_cast<std::int64_t>(stream.size()),
           "transformer mix point lost requests");
  MixPoint p;
  p.mix = mix;
  p.policy = policy;
  p.requests = stats.completed;
  p.wall_s = wall_s;
  AF_CHECK(stats.tenants.size() == 1, "expected the single mix tenant");
  p.p99_ms = stats.tenants[0].p99_latency_ms;
  p.stream_switches = stats.reconfig_stream_switches;
  p.holds = stats.reconfig_holds;
  for (const serve::ShardSnapshot& s : stats.shards) {
    p.busy_ms += s.busy_time_ps * 1e-9;
    p.reconfig_ms += s.reconfig_time_ps * 1e-9;
    p.mode_switches += s.mode_switches;
    p.fused_runs += s.fused_runs;
  }
  return p;
}

// ---- JSON ------------------------------------------------------------------

void append_point(std::ostringstream& json, const Point& p, bool last) {
  json << "    {\"shards\": " << p.shards << ", \"max_batch\": " << p.max_batch
       << ", \"clients\": " << p.clients << ", \"backend\": \"" << p.backend
       << "\", \"requests\": " << p.requests << ", \"seconds\": " << p.seconds
       << ", \"requests_per_s\": " << p.requests_per_s()
       << ", \"p50_ms\": " << p.p50_ms << ", \"p99_ms\": " << p.p99_ms
       << ", \"mean_ms\": " << p.mean_ms << ", \"fused_runs\": " << p.fused_runs
       << ", \"mode_switches\": " << p.mode_switches
       << ", \"energy_pj\": " << p.energy_pj << "}" << (last ? "" : ",")
       << "\n";
}

void write_json(const std::vector<Point>& closed_loop,
                const BackendComparison& cmp,
                const std::vector<OpenLoopPoint>& open_loop,
                const std::vector<ContendedPoint>& contended,
                double overload_capacity_rps,
                const std::vector<OverloadPoint>& overload,
                const std::vector<FleetPoint>& fleet_sweep,
                const std::vector<MixPoint>& transformer_mix,
                const std::string& path) {
  std::ostringstream json;
  json << "{\n  \"bench\": \"serving\",\n  \"unit\": \"requests/s\",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < closed_loop.size(); ++i) {
    append_point(json, closed_loop[i], i + 1 == closed_loop.size());
  }
  json << "  ],\n  \"backend_comparison\": {\n    \"analytic\": [\n";
  append_point(json, cmp.analytic, true);
  json << "    ],\n    \"cycle\": [\n";
  append_point(json, cmp.cycle, true);
  json << "    ],\n    \"analytic_vs_cycle_speedup\": " << cmp.speedup()
       << "\n  },\n  \"open_loop\": [\n";
  for (std::size_t i = 0; i < open_loop.size(); ++i) {
    const OpenLoopPoint& p = open_loop[i];
    json << "    {\"offered_rps\": " << p.offered_rps
         << ", \"api\": \"" << (p.batch > 0 ? "batched" : "scalar")
         << "\", \"batch\": " << p.batch
         << ", \"requests\": " << p.requests << ", \"seconds\": " << p.seconds
         << ", \"achieved_rps\": " << p.achieved_rps
         << ", \"p50_ms\": " << p.p50_ms << ", \"p99_ms\": " << p.p99_ms
         << ", \"mean_ms\": " << p.mean_ms << "}"
         << (i + 1 < open_loop.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"contended_submit\": [\n";
  for (std::size_t i = 0; i < contended.size(); ++i) {
    const ContendedPoint& p = contended[i];
    json << "    {\"producers\": " << p.producers
         << ", \"api\": \"" << (p.batch > 0 ? "batched" : "scalar")
         << "\", \"batch\": " << p.batch
         << ", \"requests\": " << p.requests << ", \"wall_s\": " << p.wall_s
         << ", \"cpu_s\": " << p.cpu_s
         << ", \"requests_per_s\": " << p.requests_per_s()
         << ", \"requests_per_cpu_s\": " << p.requests_per_cpu_s() << "}"
         << (i + 1 < contended.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"overload_capacity_rps\": " << overload_capacity_rps
       << ",\n  \"overload_sweep\": [\n";
  for (std::size_t i = 0; i < overload.size(); ++i) {
    const OverloadPoint& p = overload[i];
    json << "    {\"policy\": \"" << p.policy << "\", \"load_x\": " << p.load_x
         << ", \"offered_rps\": " << p.offered_rps
         << ", \"offered\": " << p.offered << ", \"admitted\": " << p.admitted
         << ", \"shed\": " << p.shed << ", \"degraded\": " << p.degraded
         << ", \"seconds\": " << p.seconds
         << ", \"goodput_rps\": " << p.goodput_rps
         << ", \"p50_ms\": " << p.p50_ms << ", \"p99_ms\": " << p.p99_ms
         << "}" << (i + 1 < overload.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"fleet_sweep\": [\n";
  for (std::size_t i = 0; i < fleet_sweep.size(); ++i) {
    const FleetPoint& p = fleet_sweep[i];
    json << "    {\"servers\": " << p.servers
         << ", \"killed_mid_run\": " << (p.killed ? "true" : "false")
         << ", \"requests\": " << p.requests << ", \"seconds\": " << p.seconds
         << ", \"requests_per_s\": " << p.requests_per_s()
         << ", \"p50_ms\": " << p.p50_ms << ", \"p99_ms\": " << p.p99_ms
         << ", \"failovers\": " << p.failovers
         << ", \"resolved_ok\": " << p.resolved_ok
         << ", \"resolved_err\": " << p.resolved_err << "}"
         << (i + 1 < fleet_sweep.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"transformer_mix\": [\n";
  for (std::size_t i = 0; i < transformer_mix.size(); ++i) {
    const MixPoint& p = transformer_mix[i];
    json << "    {\"mix\": \"" << p.mix << "\", \"policy\": \"" << p.policy
         << "\", \"requests\": " << p.requests << ", \"wall_s\": " << p.wall_s
         << ", \"busy_ms\": " << p.busy_ms
         << ", \"reconfig_ms\": " << p.reconfig_ms
         << ", \"sim_requests_per_s\": " << p.sim_requests_per_s()
         << ", \"mode_switches\": " << p.mode_switches
         << ", \"fused_runs\": " << p.fused_runs
         << ", \"stream_switches\": " << p.stream_switches
         << ", \"holds\": " << p.holds << ", \"p99_ms\": " << p.p99_ms
         << ", \"lost\": 0}" << (i + 1 < transformer_mix.size() ? "," : "")
         << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(path);
  if (!out) {
    std::cerr << "note: could not write " << path << "\n";
    return;
  }
  out << json.str();
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // --quick shrinks the request volume 4x for sanitized / smoke runs.
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const int clients = 4;
  const int per_client = quick ? 16 : 64;

  std::vector<Point> closed_loop;
  for (const int shards : {1, 2, 4}) {
    for (const int max_batch : {1, 8}) {
      closed_loop.push_back(run_point(shards, max_batch, clients, per_client,
                                      "analytic", /*want_output=*/true));
    }
  }

  std::printf("closed loop (backend: analytic)\n");
  std::printf("%7s %9s %8s %9s %12s %8s %8s %10s %12s\n", "shards",
              "max_batch", "clients", "requests", "requests/s", "p50 ms",
              "p99 ms", "fused", "mode_sw");
  for (const Point& p : closed_loop) {
    std::printf("%7d %9d %8d %9lld %12.1f %8.3f %8.3f %10lld %12lld\n",
                p.shards, p.max_batch, p.clients,
                static_cast<long long>(p.requests), p.requests_per_s(),
                p.p50_ms, p.p99_ms, static_cast<long long>(p.fused_runs),
                static_cast<long long>(p.mode_switches));
  }

  const BackendComparison cmp = run_backend_comparison(quick);
  std::printf(
      "\nbackend comparison (cost-estimation traffic, %d shards):\n"
      "  analytic: %10.1f req/s\n  cycle:    %10.1f req/s\n"
      "  speedup:  %10.1fx\n",
      cmp.analytic.shards, cmp.analytic.requests_per_s(),
      cmp.cycle.requests_per_s(), cmp.speedup());

  std::vector<OpenLoopPoint> open_loop;
  for (const double rate : {500.0, 2000.0, 8000.0, 32000.0, 128000.0}) {
    const int total = std::min(
        quick ? 2000 : 8000, std::max(200, static_cast<int>(rate / 4)));
    open_loop.push_back(run_open_loop(rate, total));
  }
  // Batched open loop: the same Poisson discipline with shapes arriving in
  // submit_gemm_batch calls.  Higher offered SHAPE rates — the batched path
  // exists to push the ceiling far past what scalar arrivals saturate at.
  for (const int batch : {1, 16, 256}) {
    for (const double rate : {32000.0, 256000.0, 2048000.0}) {
      const int total = std::min(
          quick ? 16384 : 65536,
          std::max(batch * 16, static_cast<int>(rate / 8)));
      open_loop.push_back(run_open_loop(rate, total, batch));
    }
  }
  std::printf("\nopen loop (Poisson arrivals, analytic backend, 2 shards):\n");
  std::printf("%12s %7s %12s %10s %10s %10s\n", "offered r/s", "batch",
              "achieved r/s", "p50 ms", "p99 ms", "mean ms");
  for (const OpenLoopPoint& p : open_loop) {
    std::printf("%12.0f %7s %12.1f %10.3f %10.3f %10.3f\n", p.offered_rps,
                p.batch > 0 ? std::to_string(p.batch).c_str() : "scalar",
                p.achieved_rps, p.p50_ms, p.p99_ms, p.mean_ms);
  }

  std::vector<ContendedPoint> contended;
  const int contended_total = quick ? 2048 : 8192;
  for (const int producers : {1, 2, 4, 8}) {
    contended.push_back(run_contended(producers, contended_total));
  }
  // Batched dimension: the same producer pressure through submit_gemm_batch
  // at batch sizes 1/16/256.  Shape volume scales with the batch so each
  // point still measures a steady state rather than setup cost; `requests`
  // counts shapes, so req/s stays comparable with the scalar rows above.
  for (const int batch : {1, 16, 256}) {
    const int total =
        contended_total * (batch == 1 ? 1 : (batch == 16 ? 8 : 64));
    for (const int producers : {1, 2, 4, 8}) {
      contended.push_back(run_contended(producers, total, batch));
    }
  }
  std::printf(
      "\ncontended submit (8 shards, analytic cost-only, distinct tenant "
      "per producer):\n");
  std::printf("%9s %7s %10s %12s %14s\n", "producers",
              "batch", "requests", "requests/s", "req/cpu-s");
  for (const ContendedPoint& p : contended) {
    std::printf("%9d %7s %10lld %12.1f %14.1f\n", p.producers,
                p.batch > 0 ? std::to_string(p.batch).c_str() : "scalar",
                static_cast<long long>(p.requests), p.requests_per_s(),
                p.requests_per_cpu_s());
  }

  // Capacity baseline for the overload sweep: the same GEMM the sweep
  // offers, served closed-loop at full tilt on the sweep's 2-shard layout.
  const Point capacity_point =
      run_point(/*shards=*/2, /*max_batch=*/8, /*clients=*/4,
                /*per_client=*/quick ? 50 : 200, "analytic",
                /*want_output=*/true, /*t=*/64, /*n=*/256, /*m=*/128);
  const double capacity_rps = capacity_point.requests_per_s();
  std::vector<OverloadPoint> overload;
  for (const std::string policy : serve::overload_policy_names()) {
    for (const double load_x : {0.5, 1.0, 2.0, 4.0}) {
      overload.push_back(run_overload(policy, capacity_rps, load_x, quick));
    }
  }
  std::printf(
      "\noverload sweep (2 shards, analytic full-output GEMM, capacity %.1f "
      "req/s):\n",
      capacity_rps);
  std::printf("%8s %7s %9s %9s %7s %9s %12s %9s %9s\n", "policy", "load",
              "offered", "admitted", "shed", "degraded", "goodput r/s",
              "p50 ms", "p99 ms");
  for (const OverloadPoint& p : overload) {
    std::printf("%8s %6.1fx %9lld %9lld %7lld %9lld %12.1f %9.3f %9.3f\n",
                p.policy.c_str(), p.load_x, static_cast<long long>(p.offered),
                static_cast<long long>(p.admitted),
                static_cast<long long>(p.shed),
                static_cast<long long>(p.degraded), p.goodput_rps, p.p50_ms,
                p.p99_ms);
  }

  std::vector<FleetPoint> fleet_sweep;
  const int fleet_per_client = quick ? 64 : 256;
  for (const int servers : {1, 2, 4}) {
    fleet_sweep.push_back(run_fleet_point(servers, /*kill_one=*/false,
                                          clients, fleet_per_client));
  }
  for (const int servers : {2, 4}) {
    fleet_sweep.push_back(run_fleet_point(servers, /*kill_one=*/true,
                                          clients, fleet_per_client));
  }
  std::printf(
      "\nfleet sweep (1 analytic shard per server, 4 clients, kill = "
      "server 0 dies mid-run):\n");
  std::printf("%8s %7s %9s %12s %9s %9s %10s %13s\n", "servers", "killed",
              "requests", "requests/s", "p50 ms", "p99 ms", "failovers",
              "resolved ok");
  for (const FleetPoint& p : fleet_sweep) {
    std::printf("%8d %7s %9lld %12.1f %9.3f %9.3f %10lld %13lld\n", p.servers,
                p.killed ? "yes" : "no", static_cast<long long>(p.requests),
                p.requests_per_s(), p.p50_ms, p.p99_ms,
                static_cast<long long>(p.failovers),
                static_cast<long long>(p.resolved_ok));
  }

  std::vector<MixPoint> transformer_mix;
  const int mix_sessions = quick ? 4 : 8;
  const struct {
    const char* label;
    int decode_per_prefill;
  } mixes[] = {{"1:0", 0}, {"1:8", 8}, {"1:32", 32}};
  for (const auto& mix : mixes) {
    for (const int k : {1, 2, 4}) {
      transformer_mix.push_back(run_transformer_mix(
          mix.label, "static-k" + std::to_string(k), k,
          mix.decode_per_prefill, mix_sessions));
    }
    for (const std::string policy : serve::reconfig_policy_names()) {
      transformer_mix.push_back(run_transformer_mix(
          mix.label, policy, /*static_k=*/0, mix.decode_per_prefill,
          mix_sessions));
    }
  }
  std::printf(
      "\ntransformer mix (1 shard 16x16, analytic, reconfig_cycles = 2048, "
      "%d sessions):\n",
      mix_sessions);
  std::printf("%6s %10s %9s %12s %12s %13s %9s %7s %8s %6s\n", "mix", "policy",
              "requests", "busy ms", "reconfig ms", "sim req/s", "mode_sw",
              "fused", "held", "p99");
  for (const MixPoint& p : transformer_mix) {
    std::printf("%6s %10s %9lld %12.3f %12.3f %13.1f %9lld %7lld %8lld %6.2f\n",
                p.mix.c_str(), p.policy.c_str(),
                static_cast<long long>(p.requests), p.busy_ms, p.reconfig_ms,
                p.sim_requests_per_s(),
                static_cast<long long>(p.mode_switches),
                static_cast<long long>(p.fused_runs),
                static_cast<long long>(p.holds), p.p99_ms);
  }
  // The subsystem's acceptance bar: on the decode-heavy mixes the hysteresis
  // policy must serve more requests per simulated second than the BEST
  // static mode — reconfiguration has to pay for its drains.
  for (const auto& mix : mixes) {
    if (mix.decode_per_prefill < 8) continue;
    double best_static = 0.0, sticky = 0.0;
    for (const MixPoint& p : transformer_mix) {
      if (p.mix != mix.label) continue;
      if (p.policy.rfind("static-", 0) == 0) {
        best_static = std::max(best_static, p.sim_requests_per_s());
      } else if (p.policy == "sticky") {
        sticky = p.sim_requests_per_s();
      }
    }
    std::printf("  mix %s: sticky %.1f vs best static %.1f sim req/s\n",
                mix.label, sticky, best_static);
    AF_CHECK(sticky > best_static,
             "sticky reconfiguration must beat every static mode on "
             "decode-heavy transformer mixes");
  }

  write_json(closed_loop, cmp, open_loop, contended, capacity_rps, overload,
             fleet_sweep, transformer_mix, "BENCH_serving.json");
  return 0;
}
