// "cycle" backend: the cycle-accurate arch::SystolicArray behind the
// engine::Engine facade.  run_gemm's outputs and ActivityCounters are
// MEASURED — every datum streamed, every register latch counted — so this
// backend is the ground truth the closed forms are audited against.  Its
// cost queries (evaluate, evaluate_batch, ...) are the closed forms every
// engine shares; only run_gemm simulates.

#pragma once

#include "engine/engine.h"

namespace af::engine {

class CycleAccurateEngine final : public Engine {
 public:
  CycleAccurateEngine(const arch::ArrayConfig& config,
                      std::shared_ptr<const arch::ClockModel> clock,
                      const arch::EnergyParams& energy,
                      util::ThreadPool* shared_pool);

  const std::string& name() const override;
  bool measures() const override { return true; }

  RunResult run_gemm(const GemmRequest& request) override;

 private:
  arch::SystolicArray array_;
};

}  // namespace af::engine
