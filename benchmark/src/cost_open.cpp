// cost_open: open-loop cost queries against a 2-shard 16x16 server.
//
// Independent planners ask "what does this GEMM cost, and in which mode"
// on a Poisson schedule that does not wait for answers.  Seven arrivals in
// eight are scalar Server::submit_gemm calls (k = 0, no output); the eighth
// is a submit_gemm_batch of 64 shapes.  Nearly all host time goes to the
// serving machinery (admission argmin, dispatcher, DRR, completion, tenant
// accounting); the cost cache answers almost every lookup.
//
// One generator thread submits at the due times; one collector thread
// waits for each completion in submission order and stamps it.  Without
// the collector, completions would only be seen when the generator
// harvests them, and latency would measure the harvest interval.
//
// The run is sixteen rounds, each on a fresh server (fresh threads, cold
// cache): a short warm-up, a fixed 20k shapes/s phase timed from each
// arrival's due time, then a saturation phase in which the generator
// submits the same mix back to back, so the completion rate is the
// server's capacity.  Each metric is the median over the rounds: on a
// shared host one round's thread placement or a stall of a few
// milliseconds moves that round, not the result.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <future>
#include <set>
#include <thread>
#include <tuple>

#include "bench.h"
#include "engine/engine.h"
#include "nn/mapper.h"
#include "nn/models.h"
#include "nn/transformer.h"
#include "serve/server.h"
#include "util/rng.h"

namespace afb {
namespace {

constexpr int kRounds = 16;
constexpr int kTenants = 64;
constexpr double kZipfExponent = 1.1;
constexpr int kBatchEvery = 8;
constexpr std::size_t kBatchShapes = 64;
constexpr double kShapesPerArrival =
    (kBatchEvery - 1.0 + static_cast<double>(kBatchShapes)) / kBatchEvery;
constexpr double kFixedRate = 20e3;         // shapes/s
constexpr std::size_t kSaturationArrivals = 1 << 13;  // replayed cyclically
constexpr std::size_t kRing = 1 << 16;      // in-flight slots (>> queue bound)
constexpr std::size_t kCheckScalarEvery = 256;
constexpr std::size_t kDone = std::size_t{1} << 63;  // "generator finished" bit

struct Arrival {
  std::int64_t due_ns = 0;      // from the phase start
  std::int32_t tenant = 0;
  std::int32_t scalar = -1;     // scalar pool index; -1 = batch
  std::size_t batch_first = 0;  // offset into State::batch_shapes
};

// A scalar-eligible shape with its operands: submit_gemm copies `a` and
// fuses on `b`'s identity, so each shape owns one shared weight matrix.
struct ScalarShape {
  gemm::GemmShape shape;
  gemm::Mat32 a;
  std::shared_ptr<const gemm::Mat32> b;
};

struct Round {
  std::vector<Arrival> warmup;      // untimed, fills the fresh cost cache
  std::vector<Arrival> fixed;       // Poisson at kFixedRate
  std::vector<Arrival> saturation;  // due times unused
};

struct State {
  std::vector<ScalarShape> scalar;
  std::vector<gemm::GemmShape> pool;        // every shape a batch can draw
  std::vector<std::uint16_t> batch_shapes;  // pool indices, 64 per batch
  std::vector<std::string> tenants;
  std::vector<Round> rounds;
  std::unique_ptr<serve::Server> server;  // round 0's; later rounds build anew
};

using ShapeKey = std::tuple<std::int64_t, std::int64_t, std::int64_t>;

void add_phases(std::vector<gemm::GemmShape>& out, std::set<ShapeKey>& seen,
                std::initializer_list<std::pair<int, int>> dims,
                std::initializer_list<std::int64_t> seq_ts,
                std::initializer_list<std::int64_t> kv_lens) {
  for (const auto& [d, heads] : dims) {
    nn::TransformerConfig c;
    c.d_model = d;
    c.n_heads = heads;
    c.d_ff = 4 * d;
    for (std::int64_t t : seq_ts) {
      for (std::int64_t kv : kv_lens) {
        for (nn::TransformerPhase p : nn::transformer_phases()) {
          const gemm::GemmShape s = nn::transformer_phase_shape(c, p, t, kv);
          if (seen.insert({s.m, s.n, s.t}).second) out.push_back(s);
        }
      }
    }
  }
}

// Scalar arrivals carry real operands, which submit_gemm copies, so they
// draw from transformer decode and short-chunk shapes (`a` of at most
// 32 KiB); batches are shape-only and also draw from the CNN layers and
// long prompts.
void build_pools(State& st, af::Rng& rng) {
  std::set<ShapeKey> seen;
  add_phases(st.pool, seen, {{64, 2}, {128, 4}, {256, 8}}, {1, 2, 4, 8},
             {64, 128, 256, 512});
  for (const gemm::GemmShape& s : st.pool) {
    ScalarShape sc;
    sc.shape = s;
    sc.a = gemm::random_matrix(rng, s.t, s.n, -64, 64);
    sc.b = std::make_shared<const gemm::Mat32>(
        gemm::random_matrix(rng, s.n, s.m, -64, 64));
    st.scalar.push_back(std::move(sc));
  }
  for (const nn::Model& m : nn::paper_models()) {
    for (const nn::Layer& l : m.layers) {
      const gemm::GemmShape s = nn::gemm_shape(l);
      if (seen.insert({s.m, s.n, s.t}).second) st.pool.push_back(s);
    }
  }
  add_phases(st.pool, seen, {{512, 8}, {768, 12}, {1024, 16}},
             {1, 16, 128, 512}, {128, 512, 2048});
}

std::vector<double> zipf_cdf(int n, double s) {
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[static_cast<std::size_t>(i)] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

// `count` arrivals (or, when count is 0, a Poisson stream at kFixedRate for
// `seconds`).
std::vector<Arrival> make_arrivals(State& st, af::Rng& rng,
                                   const std::vector<double>& tenant_cdf,
                                   double seconds, std::size_t count) {
  std::vector<Arrival> out;
  const double mean_gap_ns = kShapesPerArrival / kFixedRate * 1e9;
  const auto end_ns = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t t_ns = 0;
  while (count == 0 || out.size() < count) {
    t_ns += static_cast<std::int64_t>(-std::log(1.0 - rng.next_double()) *
                                      mean_gap_ns);
    if (count == 0 && t_ns >= end_ns) break;
    Arrival a;
    a.due_ns = t_ns;
    const double u = rng.next_double();
    a.tenant = static_cast<std::int32_t>(std::min<std::ptrdiff_t>(
        std::lower_bound(tenant_cdf.begin(), tenant_cdf.end(), u) -
            tenant_cdf.begin(),
        kTenants - 1));
    if (rng.next_below(kBatchEvery) == 0) {
      a.batch_first = st.batch_shapes.size();
      for (std::size_t i = 0; i < kBatchShapes; ++i) {
        st.batch_shapes.push_back(
            static_cast<std::uint16_t>(rng.next_below(st.pool.size())));
      }
    } else {
      a.scalar = static_cast<std::int32_t>(rng.next_below(st.scalar.size()));
    }
    out.push_back(a);
  }
  return out;
}

struct Timing {
  double warmup_s, fixed_s, saturation_s;
};

// --seconds is split evenly over the rounds; a round spends a tenth of its
// share warming up, half at the fixed rate and the rest saturated.
Timing timing(const Options& opt) {
  const double round = opt.seconds / kRounds;
  return {0.1 * round, 0.5 * round, 0.4 * round};
}

serve::ServerOptions server_options() {
  serve::ServerOptions options;  // every other field at its default
  options.num_shards = 2;
  return options;
}

std::unique_ptr<State> make_state(const Options& opt) {
  auto st = std::make_unique<State>();
  af::Rng rng(opt.seed);
  build_pools(*st, rng);
  for (int i = 0; i < kTenants; ++i) {
    st->tenants.push_back("tenant-" + std::to_string(i));
  }
  const std::vector<double> cdf = zipf_cdf(kTenants, kZipfExponent);
  const Timing t = timing(opt);
  for (int r = 0; r < kRounds; ++r) {
    Round round;
    round.warmup = make_arrivals(*st, rng, cdf, t.warmup_s, 0);
    round.fixed = make_arrivals(*st, rng, cdf, t.fixed_s, 0);
    round.saturation = make_arrivals(*st, rng, cdf, 0.0, kSaturationArrivals);
    st->rounds.push_back(std::move(round));
  }
  st->server = std::make_unique<serve::Server>(arch::ArrayConfig::square(16),
                                               server_options());
  return st;
}

// Exact expectations from a private analytic engine.  Batched results are
// compared with evaluate(shape, k) for every pool shape and mode, computed
// once; sampled scalar results with evaluate() of their fused run.  Both
// happen in the collector right after the completion is stamped.
class Checker {
 public:
  explicit Checker(const State& st)
      : engine_(engine::EngineBuilder()
                    .config(arch::ArrayConfig::square(16))
                    .build("analytic")) {
    const std::vector<int>& modes = engine_->config().supported_k;
    for (const gemm::GemmShape& s : st.pool) {
      std::vector<engine::CostEstimate> per_mode(
          static_cast<std::size_t>(engine_->config().max_k() + 1));
      for (int k : modes) per_mode[static_cast<std::size_t>(k)] = engine_->evaluate(s, k);
      expected_.push_back(std::move(per_mode));
    }
  }

  bool batch_ok(const State& st, const Arrival& a,
                const std::vector<engine::CostEstimate>& results) const {
    if (results.size() != kBatchShapes) return false;
    for (std::size_t j = 0; j < kBatchShapes; ++j) {
      const auto& per_mode = expected_[st.batch_shapes[a.batch_first + j]];
      const auto k = static_cast<std::size_t>(results[j].k);
      if (k >= per_mode.size() || !engine::exactly_equal(per_mode[k], results[j])) {
        return false;
      }
    }
    return true;
  }

  // Collector thread only (evaluate() is not shared with another thread).
  bool scalar_ok(const ScalarShape& s, const serve::GemmResult& r) const {
    const engine::CostEstimate e =
        engine_->evaluate(gemm::GemmShape{s.shape.m, s.shape.n, r.fused_rows}, r.k);
    // The fused run's energy is split by each request's share of its rows.
    const double energy = e.energy_pj * static_cast<double>(s.shape.t) /
                          static_cast<double>(r.fused_rows);
    return e.cycles == r.cycles && e.time_ps == r.time_ps && energy == r.energy_pj;
  }

 private:
  std::shared_ptr<engine::Engine> engine_;
  std::vector<std::vector<engine::CostEstimate>> expected_;  // [pool][k]
};

std::size_t shapes_of(const Arrival& a) { return a.scalar >= 0 ? 1 : kBatchShapes; }

// One phase of one round: the generator thread submits `arrivals` at their
// due times (or back to back when `saturate`, cycling until `seconds`
// passed), the collector thread stamps completions in order.
struct PhaseResult {
  Samples latency_ms, late_ms, submit_us, queue_ms, batch_requests, fused_rows;
  std::int64_t shapes = 0;
  std::int64_t failed_shapes = 0;
  std::int64_t checked = 0;
  std::int64_t check_failures = 0;
  double elapsed_s = 0.0;  // phase start to last completion
  double cpu_s = 0.0;      // process CPU minus the collector's
  std::vector<gemm::GemmShape> shapes_served;  // traced runs only
};

struct Slot {
  std::future<serve::GemmResult> scalar;
  serve::BatchTicket batch;
  const Arrival* arrival = nullptr;
  Clock::time_point due;
  bool refused = false;
};

PhaseResult run_phase(const State& st, const Checker& checker,
                      serve::Server& server, const std::vector<Arrival>& arrivals,
                      bool saturate, double seconds) {
  PhaseResult out;
  std::vector<Slot> ring(kRing);
  // Slots filled by the generator; it sets kDone once it has stopped.
  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> consumed{0};  // slots drained by the collector
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point last_done = start;
  double collector_cpu = 0.0;

  std::thread collector([&] {
    trace_thread_name("collector");
    const double cpu0 = thread_cpu_s();
    for (std::size_t i = 0;; ++i) {
      std::size_t p = published.load(std::memory_order_acquire);
      while ((p & ~kDone) <= i && (p & kDone) == 0) {
        published.wait(p, std::memory_order_acquire);
        p = published.load(std::memory_order_acquire);
      }
      if ((p & ~kDone) <= i) break;
      Slot& slot = ring[i % kRing];
      const Arrival& a = *slot.arrival;
      Span span("serve.wait", i);
      try {
        if (slot.refused) {
          out.failed_shapes += static_cast<std::int64_t>(shapes_of(a));
        } else if (a.scalar >= 0) {
          const serve::GemmResult r = slot.scalar.get();
          last_done = Clock::now();
          if (!saturate) out.latency_ms.add(ms_between(slot.due, last_done));
          if (tracing() && !saturate) {
            out.queue_ms.add(r.queue_ms);
            out.batch_requests.add(static_cast<double>(r.batch_requests));
            out.fused_rows.add(static_cast<double>(r.fused_rows));
          }
          if (i % kCheckScalarEvery == 0) {
            ++out.checked;
            if (!checker.scalar_ok(st.scalar[static_cast<std::size_t>(a.scalar)], r)) {
              ++out.check_failures;
            }
          }
        } else {
          const std::vector<engine::CostEstimate> r = slot.batch.get();
          last_done = Clock::now();
          if (!saturate) out.latency_ms.add(ms_between(slot.due, last_done));
          ++out.checked;
          if (!checker.batch_ok(st, a, r)) ++out.check_failures;
        }
      } catch (const std::exception&) {
        out.failed_shapes += static_cast<std::int64_t>(shapes_of(a));
      }
      span.end();
      slot = Slot{};
      consumed.store(i + 1, std::memory_order_release);
      consumed.notify_one();
    }
    collector_cpu = thread_cpu_s() - cpu0;
  });

  std::thread generator([&] {
    trace_thread_name("generator");
    std::array<gemm::GemmShape, kBatchShapes> batch;
    serve::SubmitOptions submit;
    submit.want_output = false;
    std::size_t i = 0;
    for (;; ++i) {
      if (saturate ? Clock::now() >= stop : i >= arrivals.size()) break;
      const Arrival& a = arrivals[i % arrivals.size()];
      Slot& slot = ring[i % kRing];
      for (std::size_t c = consumed.load(std::memory_order_acquire); i - c >= kRing;
           c = consumed.load(std::memory_order_acquire)) {
        consumed.wait(c, std::memory_order_acquire);
      }
      slot.arrival = &a;
      if (!saturate) {
        // Sleep through most of a long gap and spin the rest: a sleep wakes
        // tens of microseconds late, which would count as latency.
        slot.due = start + std::chrono::nanoseconds(a.due_ns);
        if (slot.due - Clock::now() > std::chrono::microseconds(300)) {
          std::this_thread::sleep_until(slot.due - std::chrono::microseconds(200));
        }
        Clock::time_point now = Clock::now();
        while (now < slot.due) now = Clock::now();
        out.late_ms.add(ms_between(slot.due, now));
      }
      const std::string& tenant = st.tenants[static_cast<std::size_t>(a.tenant)];
      try {
        if (a.scalar >= 0) {
          const ScalarShape& s = st.scalar[static_cast<std::size_t>(a.scalar)];
          Span span("serve.submit_gemm", i);
          slot.scalar = server.submit_gemm(tenant, s.a, s.b, submit);
          if (tracing() && !saturate) out.submit_us.add(span.end());
        } else {
          for (std::size_t j = 0; j < kBatchShapes; ++j) {
            batch[j] = st.pool[st.batch_shapes[a.batch_first + j]];
          }
          Span span("serve.submit_gemm_batch", i);
          slot.batch = server.submit_gemm_batch(tenant, batch, submit);
          if (tracing() && !saturate) out.submit_us.add(span.end());
        }
      } catch (const std::exception&) {
        slot.refused = true;
      }
      out.shapes += static_cast<std::int64_t>(shapes_of(a));
      if (tracing() && !saturate) {
        if (a.scalar >= 0) {
          out.shapes_served.push_back(st.scalar[static_cast<std::size_t>(a.scalar)].shape);
        } else {
          for (std::size_t j = 0; j < kBatchShapes; ++j) {
            out.shapes_served.push_back(st.pool[st.batch_shapes[a.batch_first + j]]);
          }
        }
      }
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
    published.store(i | kDone, std::memory_order_release);
    published.notify_one();
  });

  const double cpu0 = process_cpu_s();
  generator.join();
  collector.join();
  out.cpu_s = process_cpu_s() - cpu0 - collector_cpu;
  out.elapsed_s = seconds_between(start, last_done);
  return out;
}

}  // namespace

void run_cost_open(const Options& opt, Report& report) {
  std::unique_ptr<State> st =
      timed_setup(report, [&] { return make_state(opt); });
  const Timing t = timing(opt);

  Samples p50, p90, p99, capacity, cpu_per_shape;
  PhaseResult traced;  // round 0's fixed phase, for the per-layer metrics
  std::int64_t attempted = 0, failed = 0, checked = 0, check_failures = 0;
  const Checker checker(*st);
  for (int r = 0; r < kRounds; ++r) {
    Span span("cost_open.round", static_cast<std::uint64_t>(r));
    std::unique_ptr<serve::Server> server =
        r == 0 ? std::move(st->server)
               : std::make_unique<serve::Server>(arch::ArrayConfig::square(16),
                                                 server_options());
    const Round& round = st->rounds[static_cast<std::size_t>(r)];
    PhaseResult phases[3] = {
        run_phase(*st, checker, *server, round.warmup, false, t.warmup_s),
        run_phase(*st, checker, *server, round.fixed, false, t.fixed_s),
        run_phase(*st, checker, *server, round.saturation, true, t.saturation_s)};
    for (PhaseResult& p : phases) {
      attempted += p.shapes;
      failed += p.failed_shapes;
      checked += p.checked;
      check_failures += p.check_failures;
    }
    const PhaseResult& fixed = phases[1];
    const PhaseResult& sat = phases[2];
    p50.add(fixed.latency_ms.quantile(0.5));
    p90.add(fixed.latency_ms.quantile(0.9));
    p99.add(fixed.latency_ms.quantile(0.99));
    capacity.add(static_cast<double>(sat.shapes) / sat.elapsed_s);
    cpu_per_shape.add(1e6 * sat.cpu_s / static_cast<double>(sat.shapes));
    if (r == 0 && tracing()) {
      traced = std::move(phases[1]);
      const serve::ServerStats stats = server->stats();
      const double lookups =
          static_cast<double>(stats.cost_cache_hits + stats.cost_cache_misses);
      report.layer("engine.cache_hit_ratio",
                   static_cast<double>(stats.cost_cache_hits) / std::max(1.0, lookups),
                   "ratio", static_cast<std::int64_t>(lookups));
      report.note("serve.steals", static_cast<double>(stats.steals), "count");
    }
  }
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.attempted = attempted;
  report.failed = failed;
  report.e2e("ops_per_s", capacity.median(), "ops/s", kRounds);
  report.e2e("lat_p50_ms", p50.median(), "ms", kRounds);
  report.layer("lat_p90_ms", p90.median(), "ms", kRounds);
  report.layer("lat_p99_ms", p99.median(), "ms", kRounds);
  report.e2e("cpu_us_per_op", cpu_per_shape.median(), "us", kRounds);

  report.check(check_failures == 0,
               "cost_open: " + std::to_string(check_failures) +
                   " results differ from the analytic engine");
  report.note("checked_results", static_cast<double>(checked), "count");

  if (!tracing()) return;
  const auto sub_n = static_cast<std::int64_t>(traced.submit_us.size());
  const auto q_n = static_cast<std::int64_t>(traced.queue_ms.size());
  report.layer("serve.submit_us.p50", traced.submit_us.quantile(0.5), "us", sub_n);
  report.layer("serve.submit_us.p99", traced.submit_us.quantile(0.99), "us", sub_n);
  report.layer("serve.queue_ms.p50", traced.queue_ms.quantile(0.5), "ms", q_n);
  report.layer("serve.queue_ms.p99", traced.queue_ms.quantile(0.99), "ms", q_n);
  report.note("client.late_ms.p99", traced.late_ms.quantile(0.99), "ms", sub_n);
  report.note("client.late_ms.max", traced.late_ms.max(), "ms", sub_n);
  report.note("serve.batch_requests.mean", traced.batch_requests.mean(), "requests", q_n);
  report.note("serve.fused_rows.mean", traced.fused_rows.mean(), "rows", q_n);

  ReplayInputs replay;
  replay.config = arch::ArrayConfig::square(16);
  replay.shapes = std::move(traced.shapes_served);
  for (const ScalarShape& s : st->scalar) replay.gemms.push_back({s.a, s.b});
  replay.models = nn::paper_models();
  replay_layers(replay, report);
}

}  // namespace afb
