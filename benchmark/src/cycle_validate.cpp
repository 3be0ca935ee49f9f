// cycle_validate: full-output GEMMs of ResNet-34 on the cycle-accurate
// backend.
//
// Two client threads keep two requests in flight each against a 2-shard
// server with backend "cycle" on a 32x32 array.  Requests walk ResNet-34's
// 33 convolutions at the paper's shapes, each layer once at k = 0 (the
// optimizer's mode) and once at k = 1; every fourth layer carries
// block-sparse weights (about half its 32x32 weight tiles zero).  Host time
// is almost all arch::SystolicArray simulation, so this is where a
// simulator speed-up shows, and where a serving change must not.
//
// Operands are made once per layer at set-up, so the clients only copy,
// submit and wait.  Each output's digest is taken when its completion is
// stamped and compared with reference_gemm after the timed window: checking
// inside it would put up to two reference GEMMs on the CPUs beside the two
// simulating shards.  Cycles are compared with the analytic engine's
// evaluate().  The server has no block-sparse execution path (sparse
// weights run dense), so the sparse closed form is checked once per run on
// the cycle engine.

#include <algorithm>
#include <atomic>
#include <deque>
#include <future>
#include <map>
#include <thread>

#include "arch/sparse.h"
#include "bench.h"
#include "engine/engine.h"
#include "gemm/reference.h"
#include "nn/mapper.h"
#include "nn/models.h"
#include "serve/server.h"
#include "util/rng.h"

namespace afb {
namespace {

constexpr int kSide = 32;
constexpr int kClients = 2;
constexpr std::size_t kInFlightPerClient = 2;

struct Layer {
  gemm::GemmShape shape;
  bool sparse = false;
  gemm::Mat32 a;
  std::shared_ptr<const gemm::Mat32> b;
};

struct State {
  std::vector<Layer> layers;  // ResNet-34's 33 convolutions
  std::unique_ptr<serve::Server> server;
};

std::unique_ptr<State> make_state(std::uint64_t seed) {
  auto st = std::make_unique<State>();
  af::Rng rng(seed);
  const nn::Model model = nn::resnet34();
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    Layer l;
    l.shape = nn::gemm_shape(model.layers[i]);
    l.sparse = i % 4 == 3;
    l.a = gemm::random_matrix(rng, l.shape.t, l.shape.n, -64, 64);
    gemm::Mat32 b = gemm::random_matrix(rng, l.shape.n, l.shape.m, -64, 64);
    if (l.sparse) {
      for (std::int64_t n0 = 0; n0 < l.shape.n; n0 += kSide) {
        for (std::int64_t m0 = 0; m0 < l.shape.m; m0 += kSide) {
          if (rng.next_below(2) == 0) continue;
          for (std::int64_t r = n0; r < std::min(n0 + kSide, l.shape.n); ++r) {
            for (std::int64_t c = m0; c < std::min(m0 + kSide, l.shape.m); ++c) {
              b.at(r, c) = 0;
            }
          }
        }
      }
    }
    l.b = std::make_shared<const gemm::Mat32>(std::move(b));
    st->layers.push_back(std::move(l));
  }
  serve::ServerOptions options;
  options.num_shards = 2;
  options.backend = "cycle";
  // Requests never share weights, so coalescing them only queues one
  // behind another on the same shard while the other shard idles; one
  // request per dispatch keeps both arrays simulating.
  options.max_batch = 1;
  st->server = std::make_unique<serve::Server>(arch::ArrayConfig::square(kSide),
                                               options);
  return st;
}

// Request r: layer (r / 2) mod 33, k = 0 for even r and 1 for odd r.
std::size_t layer_of(const State& st, std::uint64_t r) {
  return static_cast<std::size_t>((r / 2) % st.layers.size());
}

double macs(const gemm::GemmShape& s) {
  return static_cast<double>(s.t) * static_cast<double>(s.n) *
         static_cast<double>(s.m);
}

std::uint64_t digest(const gemm::Mat64& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<std::uint64_t>(m.rows());
  for (std::int64_t v : m.data()) {
    h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
  }
  return h;
}

// What the check after the timed window needs of one completed request.
struct Completed {
  std::uint64_t index = 0;
  serve::GemmResult result;  // `out` cleared once digested
  std::uint64_t out_digest = 0;
};

struct ClientResult {
  Samples latency_ms, submit_us, queue_ms;
  double macs = 0.0;
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  double cpu_s = 0.0;
  Clock::time_point last_done;
  std::vector<Completed> completed;
};

void client_loop(const State& st, int client, Clock::time_point deadline,
                 std::atomic<std::uint64_t>& next, ClientResult& out) {
  trace_thread_name("client-" + std::to_string(client));
  const double cpu0 = thread_cpu_s();
  struct Pending {
    std::uint64_t index = 0;
    std::future<serve::GemmResult> future;
    Clock::time_point submitted;
  };
  std::deque<Pending> pending;
  while (true) {
    while (pending.size() < kInFlightPerClient && Clock::now() < deadline) {
      Pending p;
      p.index = next.fetch_add(1);
      const Layer& layer = st.layers[layer_of(st, p.index)];
      serve::SubmitOptions submit;
      submit.k = p.index % 2 == 0 ? 0 : 1;
      Span span("serve.submit_gemm", p.index);
      p.submitted = Clock::now();
      p.future = st.server->submit_gemm("resnet34", layer.a, layer.b, submit);
      out.submit_us.add(span.end());
      pending.push_back(std::move(p));
    }
    if (pending.empty()) break;
    auto it = std::find_if(pending.begin(), pending.end(), [](Pending& p) {
      return p.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    if (it == pending.end()) {
      pending.front().future.wait_for(std::chrono::microseconds(200));
      continue;
    }
    const Clock::time_point now = Clock::now();
    Pending p = std::move(*it);
    pending.erase(it);
    ++out.requests;
    try {
      Completed c;
      c.index = p.index;
      c.result = p.future.get();
      out.latency_ms.add(ms_between(p.submitted, now));
      out.macs += macs(st.layers[layer_of(st, p.index)].shape);
      out.last_done = now;
      if (tracing()) out.queue_ms.add(c.result.queue_ms);
      Span span("client.digest", p.index);
      c.out_digest = digest(c.result.out);
      c.result.out = gemm::Mat64();
      out.completed.push_back(std::move(c));
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  out.cpu_s = thread_cpu_s() - cpu0;
}

// Every completed output against reference_gemm (one reference per layer,
// computed in parallel) and its cycles against the analytic engine.
void verify(const State& st, const std::vector<Completed>& completed,
            Report& report) {
  Span span("check.outputs");
  std::map<std::size_t, std::uint64_t> expected;
  for (const Completed& c : completed) expected[layer_of(st, c.index)] = 0;
  std::vector<std::size_t> layers;
  for (const auto& [layer, d] : expected) layers.push_back(layer);
  std::vector<std::uint64_t> digests(layers.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  const unsigned threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < layers.size(); i = next.fetch_add(1)) {
        const Layer& l = st.layers[layers[i]];
        digests[i] = digest(gemm::reference_gemm(l.a, *l.b));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (std::size_t i = 0; i < layers.size(); ++i) expected[layers[i]] = digests[i];

  std::shared_ptr<engine::Engine> analytic =
      engine::EngineBuilder().config(arch::ArrayConfig::square(kSide)).build("analytic");
  for (const Completed& c : completed) {
    const Layer& l = st.layers[layer_of(st, c.index)];
    const serve::GemmResult& r = c.result;
    const gemm::GemmShape fused{l.shape.m, l.shape.n, r.fused_rows};
    report.check(c.out_digest == expected[layer_of(st, c.index)],
                 "cycle_validate: request " + std::to_string(c.index) +
                     " output differs from reference_gemm");
    report.check(analytic->evaluate(fused, r.k).cycles == r.cycles &&
                     (c.index % 2 == 0 || r.k == 1),
                 "cycle_validate: request " + std::to_string(c.index) +
                     " cycles differ from evaluate()");
  }
}

// The sparse closed form, once per run: the first sparse layer at k = 1
// through the cycle engine's block-sparse path.
void verify_sparse(const State& st, Report& report) {
  Span span("check.sparse");
  const Layer& l = st.layers[3];
  engine::EngineBuilder builder;
  builder.config(arch::ArrayConfig::square(kSide));
  engine::GemmRequest request;
  request.a = &l.a;
  request.b = l.b.get();
  request.k = 1;
  request.sparse = true;
  const engine::RunResult run = builder.build("cycle")->run_gemm(request);
  const arch::TileOccupancy occupancy =
      arch::TileOccupancy::from_matrix(*l.b, kSide, kSide);
  report.check(l.sparse && occupancy.nonzero_tiles() < occupancy.total_tiles(),
               "cycle_validate: layer 3 is not block-sparse");
  report.check(run.cost.cycles ==
                   builder.build("analytic")->evaluate_sparse(l.shape, 1, occupancy).cycles,
               "cycle_validate: sparse cycles differ from evaluate_sparse()");
  report.check(run.out.has_value() && *run.out == gemm::reference_gemm(l.a, *l.b),
               "cycle_validate: sparse output differs from reference_gemm");
}

}  // namespace

void run_cycle_validate(const Options& opt, Report& report) {
  std::unique_ptr<State> st =
      timed_setup(report, [&] { return make_state(opt.seed); });

  std::atomic<std::uint64_t> next{0};
  std::vector<ClientResult> results(kClients);
  const double cpu0 = process_cpu_s();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, std::cref(*st), c, deadline, std::ref(next),
                           std::ref(results[static_cast<std::size_t>(c)]));
    }
    for (std::thread& t : clients) t.join();
  }
  const double cpu_s = process_cpu_s() - cpu0;
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  ClientResult all;
  Clock::time_point end = start;
  double client_cpu = 0.0;
  for (ClientResult& r : results) {
    all.latency_ms.merge(r.latency_ms);
    all.submit_us.merge(r.submit_us);
    all.queue_ms.merge(r.queue_ms);
    all.macs += r.macs;
    all.requests += r.requests;
    all.failed += r.failed;
    std::move(r.completed.begin(), r.completed.end(), std::back_inserter(all.completed));
    end = std::max(end, r.last_done);
    client_cpu += r.cpu_s;
  }
  const double elapsed = seconds_between(start, end);
  const auto n = static_cast<std::int64_t>(all.latency_ms.size());
  report.attempted = all.requests;
  report.failed = all.failed;
  report.e2e("ops_per_s", all.macs / elapsed, "ops/s", n);
  report.e2e("lat_p50_ms", all.latency_ms.quantile(0.5), "ms", n);
  report.layer("lat_p90_ms", all.latency_ms.quantile(0.9), "ms", n);
  report.layer("lat_p99_ms", all.latency_ms.quantile(0.99), "ms", n);
  report.e2e("cpu_us_per_op", 1e6 * (cpu_s - client_cpu) / std::max(1.0, all.macs), "us",
             n);
  report.note("requests", static_cast<double>(all.requests), "count");

  verify(*st, all.completed, report);
  verify_sparse(*st, report);
  report.note("checked_outputs", static_cast<double>(all.completed.size()), "count");

  if (!tracing()) return;
  const serve::ServerStats stats = st->server->stats();
  const auto s_n = static_cast<std::int64_t>(all.submit_us.size());
  report.layer("serve.submit_us.p50", all.submit_us.quantile(0.5), "us", s_n);
  report.layer("serve.submit_us.p99", all.submit_us.quantile(0.99), "us", s_n);
  report.layer("serve.queue_ms.p50", all.queue_ms.quantile(0.5), "ms", n);
  report.layer("serve.queue_ms.p99", all.queue_ms.quantile(0.99), "ms", n);
  const double lookups =
      static_cast<double>(stats.cost_cache_hits + stats.cost_cache_misses);
  report.layer("engine.cache_hit_ratio",
               static_cast<double>(stats.cost_cache_hits) / std::max(1.0, lookups),
               "ratio", static_cast<std::int64_t>(lookups));

  ReplayInputs replay;
  replay.config = arch::ArrayConfig::square(kSide);
  for (std::uint64_t r = 0; r < next.load(); ++r) {
    replay.shapes.push_back(st->layers[layer_of(*st, r)].shape);
  }
  for (std::size_t i = 0; i < 2; ++i) {
    replay.gemms.push_back({st->layers[i].a, st->layers[i].b});
  }
  replay.models = {nn::resnet34()};
  replay_layers(replay, report);
}

}  // namespace afb
