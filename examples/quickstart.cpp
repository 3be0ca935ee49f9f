// Quickstart: one matrix multiplication on ArrayFlex through the unified
// engine facade — priced analytically, executed cycle-accurately, and
// cross-checked, with the optimizer picking the best pipeline mode.
//
//   $ ./quickstart
//
// Walks through the whole public API surface in ~80 lines:
//   1. wire an engine              (engine::EngineBuilder / engine::make)
//   2. make a workload             (gemm::random_matrix)
//   3. price it instantly          (AnalyticEngine::evaluate, Eqs. 1-6)
//   4. execute it cycle-accurately (CycleAccurateEngine::run_gemm)
//   5. check both agree exactly    (outputs AND cycles/counters/energy)
//   6. let the engine pick k       (evaluate(shape, 0), Eqs. 6-7)

#include <iostream>

#include "engine/engine.h"
#include "gemm/reference.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace af;

int main() {
  // 1. A 16x16 ArrayFlex instance supporting normal mode and two shallow
  //    modes, the paper's DATE-23 calibrated clock, generic 28nm energy —
  //    the EngineBuilder owns all of that wiring; build() instantiates any
  //    registered backend over it.
  engine::EngineBuilder builder;
  builder.square(16);
  auto analytic = builder.build("analytic");  // closed forms, instant
  auto cycle = builder.build("cycle");        // full simulation, exact
  std::cout << "array: " << analytic->config().to_string() << "\n\n";

  // 2. X(T x M) = A(T x N) x B(N x M) with T=24, N=40, M=20: the tiler will
  //    cut N into 3 row-tiles and M into 2 column-tiles (Eq. 2).
  Rng rng(2023);
  const gemm::Mat32 a = gemm::random_matrix(rng, 24, 40, -128, 127);
  const gemm::Mat32 b = gemm::random_matrix(rng, 40, 20, -128, 127);
  const gemm::GemmShape shape{b.cols(), a.cols(), a.rows()};
  const gemm::Mat64 expected = gemm::reference_gemm(a, b);

  // 3 + 4 + 5. For every mode: price analytically, execute cycle-
  //    accurately, and verify the backends agree to the last bit/cycle.
  std::cout << "mode  cycles(analytic)  cycles(cycle-sim)  energy pJ  result\n";
  for (const int k : analytic->config().supported_k) {
    const engine::CostEstimate priced = analytic->evaluate(shape, k);

    engine::GemmRequest request;
    request.a = &a;
    request.b = &b;
    request.k = k;
    const engine::RunResult run = cycle->run_gemm(request);

    const bool outputs_ok =
        run.out.has_value() &&
        gemm::first_mismatch(*run.out, expected).empty();
    const bool costs_ok = engine::exactly_equal(priced, run.cost);
    std::cout << format(" k=%d  %16lld  %17lld  %9.1f  %s\n", k,
                        static_cast<long long>(priced.cycles),
                        static_cast<long long>(run.cost.cycles),
                        run.cost.energy_pj,
                        outputs_ok && costs_ok ? "exact match" : "MISMATCH");
  }

  // 6. Absolute time depends on the per-mode clock (Eq. 5): slower clock,
  //    fewer cycles.  evaluate(shape, 0) resolves the trade-off (Eq. 6);
  //    the engine's optimizer exposes the Eq. 7 continuous optimum.
  std::cout << "\nabsolute time per mode (cycle count x Tclock):\n";
  const engine::CostEstimate best = analytic->evaluate(shape, 0);
  for (const int k : analytic->config().supported_k) {
    const engine::CostEstimate est = analytic->evaluate(shape, k);
    std::cout << format(" k=%d  %s at %.2f GHz%s\n", k,
                        format_time_ps(est.time_ps).c_str(),
                        1e3 / est.period_ps,
                        k == best.k ? "   <- engine's choice" : "");
  }
  std::cout << format(
      "\ncontinuous optimum k-hat (Eq. 7) = %.2f; conventional fixed-pipeline "
      "SA would take %s\n",
      analytic->optimizer().continuous_k_hat(shape),
      format_time_ps(analytic->optimizer().conventional(shape).time_ps)
          .c_str());
  return 0;
}
