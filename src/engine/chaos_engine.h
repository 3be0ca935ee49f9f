// "chaos" backend: deterministic fault injection wrapped around any other
// registered engine — the serving layer's failure-path test rig.
//
// Production hardening (retry, quarantine, deadline, audit) is only as
// good as its tests, and real engines in this repo never fail once their
// inputs validate.  ChaosEngine supplies the missing failures ON SCHEDULE:
// a throw every Nth run (af::Error with ErrorCode::kEngineFault), a delay
// before every run, and +1-cycle results (the smallest lie the sampled
// audit replay must catch).  Each fault is a pure function of the run
// counter, so a given construction replays the identical fault sequence —
// chaos stress tests are bit-reproducible, and a REBUILT chaos engine
// restarts its schedule from run 1 (which is how a quarantine recovery
// probe can succeed against a throw_every_n engine).
//
// Faults hit run_gemm only.  The cost queries are Engine's closed forms,
// the same on every backend, so admission decisions stay correct while
// execution misbehaves.

#pragma once

#include <atomic>

#include "engine/engine.h"

namespace af::engine {

class ChaosEngine final : public Engine {
 public:
  // `inner` must be built over the same builder wiring (the registry
  // creator guarantees it); `options` are the builder's chaos knobs.
  ChaosEngine(const EngineBuilder& builder, std::shared_ptr<Engine> inner);

  const std::string& name() const override;
  bool measures() const override { return inner_->measures(); }

  RunResult run_gemm(const GemmRequest& request) override;

 private:
  std::shared_ptr<Engine> inner_;
  ChaosOptions options_;
  std::atomic<std::uint64_t> runs_{0};  // run_gemm calls so far
};

}  // namespace af::engine
