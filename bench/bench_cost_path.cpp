// PERF — cost-path microbenchmark: where does a cost query's time go?
//
// The serving benches (bench_serving) measure the cost path end to end,
// dispatch and completion plumbing included.  This bench isolates the
// layers so a regression is attributable:
//
//   evaluate_scalar     — the uncached virtual evaluate() loop: one closed-
//                         form Eq. 3/4/6 sweep per shape per call.  The
//                         pre-batching baseline.
//   evaluate_batch_cold — evaluate_batch() with the memo cache cleared
//                         before every call: the SoA two-pass kernel alone
//                         (contiguous shape arrays, no per-element virtual
//                         dispatch), no memoization help.
//   evaluate_batch      — evaluate_batch() in the serving steady state: the
//                         first call fills the cache, the rest answer from
//                         it.  This is the number the batched serving path
//                         rides on.
//   evaluate_cached     — the scalar memoized entry point (evaluate_cached)
//                         on a warm cache: per-call overhead of the sharded
//                         lookup itself.
//   submit_scalar       — Server::submit_gemm cost-only round trips: adds
//                         queue hop + promise/future per shape.
//   submit_batched      — Server::submit_gemm_batch at 256 shapes/call:
//                         one queue hop and one pooled completion slot per
//                         CALL instead of per shape.
//
// Writes BENCH_cost_path.json.  CI runs this as a smoke gate: the batched
// engine path must not lose to the scalar one (a generous >= 1.0x bar — the
// expected ratio is orders of magnitude — so scheduler noise on a loaded
// runner cannot flake the gate).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "engine/cost_cache.h"
#include "engine/engine.h"
#include "gemm/matrix.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/status.h"

namespace {

using namespace af;

struct Result {
  std::string mode;
  std::int64_t shapes = 0;  // shapes priced in the timed region (best trial)
  double seconds = 0.0;
  double shapes_per_s() const {
    return seconds > 0 ? static_cast<double>(shapes) / seconds : 0.0;
  }
};

// Randomized but reproducible shape set: the mix a serving admission loop
// sees, from skinny decode GEMMs to fat prefill tiles.
std::vector<gemm::GemmShape> make_shapes(int count, Rng& rng) {
  std::vector<gemm::GemmShape> shapes;
  shapes.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    shapes.push_back({/*m=*/rng.next_in(8, 256), /*n=*/rng.next_in(8, 256),
                      /*t=*/rng.next_in(1, 128)});
  }
  return shapes;
}

// Best-of-N wall-clock trials (see bench_serving's run_contended for the
// rationale: the best trial is the low-noise estimator on a shared runner).
template <typename Fn>
Result measure(const std::string& mode, std::int64_t shapes_per_trial,
               int trials, Fn&& body) {
  Result best;
  best.mode = mode;
  best.shapes = shapes_per_trial;
  for (int trial = 0; trial < trials; ++trial) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (trial == 0 || s < best.seconds) best.seconds = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const int kShapeCount = 256;
  const int kRepeats = quick ? 20 : 200;       // engine-level passes/trial
  const int kSubmitRepeats = quick ? 4 : 16;   // server round trips/trial
  const int kTrials = 3;

  Rng rng(20260808);
  const std::vector<gemm::GemmShape> shapes = make_shapes(kShapeCount, rng);
  const std::span<const gemm::GemmShape> span(shapes);
  const std::int64_t per_trial =
      static_cast<std::int64_t>(kShapeCount) * kRepeats;

  auto engine = engine::EngineBuilder().square(16).build("analytic");

  // Exact-equality spot check before any timing: the batched and cached
  // paths must return bit-identical estimates to the scalar virtual
  // evaluate(), per shape, argmin and fixed modes alike.
  for (const int k : {0, 1, 2, 4}) {
    const std::vector<engine::CostEstimate> batched =
        engine->evaluate_batch(span, k);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      AF_CHECK(engine::exactly_equal(batched[i], engine->evaluate(shapes[i], k)),
               "evaluate_batch diverged from scalar evaluate at shape " << i
                                                                        << " k="
                                                                        << k);
      AF_CHECK(
          engine::exactly_equal(engine->evaluate_cached(shapes[i], k),
                                engine->evaluate(shapes[i], k)),
          "evaluate_cached diverged from scalar evaluate at shape " << i);
    }
  }

  std::vector<Result> results;

  results.push_back(measure("evaluate_scalar", per_trial, kTrials, [&] {
    for (int r = 0; r < kRepeats; ++r) {
      for (const gemm::GemmShape& s : shapes) {
        volatile std::int64_t sink = engine->evaluate(s, 0).cycles;
        (void)sink;
      }
    }
  }));

  results.push_back(measure("evaluate_batch_cold", per_trial, kTrials, [&] {
    for (int r = 0; r < kRepeats; ++r) {
      engine->cost_cache()->clear();
      volatile std::int64_t sink = engine->evaluate_batch(span, 0)[0].cycles;
      (void)sink;
    }
  }));

  engine->evaluate_batch(span, 0);  // warm the memo once
  results.push_back(measure("evaluate_batch", per_trial, kTrials, [&] {
    for (int r = 0; r < kRepeats; ++r) {
      volatile std::int64_t sink = engine->evaluate_batch(span, 0)[0].cycles;
      (void)sink;
    }
  }));

  results.push_back(measure("evaluate_cached", per_trial, kTrials, [&] {
    for (int r = 0; r < kRepeats; ++r) {
      for (const gemm::GemmShape& s : shapes) {
        volatile std::int64_t sink = engine->evaluate_cached(s, 0).cycles;
        (void)sink;
      }
    }
  }));

  // Server round trips: same shape set through the dispatch layer, scalar
  // futures vs one pooled batch ticket per 256 shapes.  One submitter, two
  // shards — this isolates per-request plumbing, not lock contention
  // (bench_serving's contended study owns that axis).
  serve::ServerOptions opts;
  opts.num_shards = 2;
  opts.max_batch = 32;
  opts.queue_capacity = 1024;
  opts.backend = "analytic";
  const std::int64_t submit_per_trial =
      static_cast<std::int64_t>(kShapeCount) * kSubmitRepeats;
  {
    serve::Server server(arch::ArrayConfig::square(16), opts);
    Rng weight_rng(99);
    auto weights = std::make_shared<gemm::Mat32>(
        gemm::random_matrix(weight_rng, 32, 32, -40, 40));
    const gemm::Mat32 activation = gemm::random_matrix(weight_rng, 4, 32,
                                                       -40, 40);
    results.push_back(
        measure("submit_scalar", submit_per_trial, kTrials, [&] {
          constexpr std::size_t kWindow = 64;
          std::vector<std::future<serve::GemmResult>> in_flight;
          for (int r = 0; r < kSubmitRepeats; ++r) {
            for (int i = 0; i < kShapeCount; ++i) {
              in_flight.push_back(server.submit_gemm(
                  "bench", activation, weights,
                  {.k = 1, .want_output = false}));
              if (in_flight.size() >= kWindow) {
                in_flight.front().get();
                in_flight.erase(in_flight.begin());
              }
            }
          }
          for (auto& f : in_flight) f.get();
        }));
  }
  {
    serve::Server server(arch::ArrayConfig::square(16), opts);
    results.push_back(
        measure("submit_batched", submit_per_trial, kTrials, [&] {
          constexpr std::size_t kWindow = 4;
          std::vector<serve::BatchTicket> in_flight;
          for (int r = 0; r < kSubmitRepeats; ++r) {
            in_flight.push_back(server.submit_gemm_batch("bench", span));
            if (in_flight.size() >= kWindow) {
              in_flight.front().get();
              in_flight.erase(in_flight.begin());
            }
          }
          for (auto& t : in_flight) t.get();
        }));
  }

  auto rate = [&](const std::string& mode) {
    for (const Result& r : results) {
      if (r.mode == mode) return r.shapes_per_s();
    }
    return 0.0;
  };

  std::printf("cost path (16x16 analytic, %d shapes, argmin k):\n",
              kShapeCount);
  std::printf("%20s %12s %12s %10s\n", "mode", "shapes", "shapes/s",
              "vs scalar");
  const double scalar = rate("evaluate_scalar");
  for (const Result& r : results) {
    std::printf("%20s %12lld %12.0f %9.1fx\n", r.mode.c_str(),
                static_cast<long long>(r.shapes), r.shapes_per_s(),
                scalar > 0 ? r.shapes_per_s() / scalar : 0.0);
  }

  // The smoke gates.  Both bars are deliberately loose (>= parity where the
  // expected win is 10-1000x) so the gate cannot flake under CI noise.
  AF_CHECK(rate("evaluate_batch") >= scalar,
           "batched evaluate lost to the scalar loop");
  AF_CHECK(rate("submit_batched") >= rate("submit_scalar"),
           "batched submit lost to scalar submit");

  std::ostringstream json;
  json << "{\n  \"bench\": \"cost_path\",\n  \"unit\": \"shapes/s\",\n"
       << "  \"shape_count\": " << kShapeCount << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    json << "    {\"mode\": \"" << r.mode << "\", \"shapes\": " << r.shapes
         << ", \"seconds\": " << r.seconds
         << ", \"shapes_per_s\": " << r.shapes_per_s()
         << ", \"vs_scalar\": " << (scalar > 0 ? r.shapes_per_s() / scalar
                                               : 0.0)
         << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::ofstream out("BENCH_cost_path.json");
  if (!out) {
    std::cerr << "note: could not write BENCH_cost_path.json\n";
    return 0;
  }
  out << json.str();
  std::cout << "wrote BENCH_cost_path.json\n";
  return 0;
}
