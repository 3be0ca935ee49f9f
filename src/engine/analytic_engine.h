// "analytic" backend: run_gemm prices a GEMM from the closed forms every
// engine shares (Engine::evaluate / evaluate_sparse: Eqs. 1-4 latency, the
// arch/activity.h counters and utilization-aware power).  The closed forms
// are pinned cycle-for-cycle and counter-for-counter against the
// cycle-accurate simulator (tests/arch_equivalence_test.cpp,
// tests/engine_test.cpp), so this backend's CostEstimates are exactly the
// numbers the "cycle" backend measures — at a tiny fraction of the cost.
// The output matrix is computed via gemm::multiply (checked bit-exactly
// against gemm::reference_gemm) only when the request asks for it;
// cost-only traffic never touches the operands.

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
};

}  // namespace af::engine
