// "analytic" backend: closed-form latency (Eqs. 1-4), activity
// (arch/activity.h) and utilization-aware power behind the engine::Engine
// facade.  The closed forms are pinned cycle-for-cycle and
// counter-for-counter against the cycle-accurate simulator
// (tests/arch_equivalence_test.cpp, tests/engine_test.cpp), so this
// backend's CostEstimates are exactly the numbers the "cycle" backend
// measures — at a tiny fraction of the cost.  The output matrix is
// computed via gemm::multiply (checked bit-exactly against
// gemm::reference_gemm) only when the request asks for it; cost-only
// traffic never touches the operands.

#pragma once

#include "engine/engine.h"

namespace af::engine {

class AnalyticEngine final : public Engine {
 public:
  AnalyticEngine(const arch::ArrayConfig& config,
                 std::shared_ptr<const arch::ClockModel> clock,
                 const arch::EnergyParams& energy,
                 util::ThreadPool* shared_pool);

  const std::string& name() const override;
  bool measures() const override { return false; }

  RunResult run_gemm(const GemmRequest& request) override;
  CostEstimate evaluate(const gemm::GemmShape& shape, int k = 0) override;
  // Vectorized batch path: the Eq. 3/4 integer closed forms and the Eq. 6
  // argmin run over contiguous SoA arrays (one branch-free inner loop per
  // mode, no per-element virtual dispatch); only cache misses pay the full
  // per-element finalization.  Element i is EXACTLY equal to
  // evaluate(shapes[i], k) — the SoA loops execute the same integer and
  // double arithmetic as arch::total_latency_cycles / absolute_time_ps.
  std::vector<CostEstimate> evaluate_batch(
      std::span<const gemm::GemmShape> shapes, int k = 0) override;
  CostEstimate evaluate_tile_asym(std::int64_t t, int k_v, int k_h) override;
  CostEstimate evaluate_sparse(const gemm::GemmShape& shape, int k,
                               const arch::TileOccupancy& occupancy) override;
};

}  // namespace af::engine
