// End-to-end model evaluation: map every layer to its GEMM, choose the
// optimal pipeline depth per layer (Eq. 6), and aggregate latency, power and
// energy for both ArrayFlex and the conventional fixed-pipeline SA.
//
// This is the harness behind Figs. 7, 8 and 9.
//
// The runner is a stateless view of an engine::Engine: the engine owns the
// config/clock/energy/thread-pool wiring (and keeps the clock model alive,
// so there is no dangling-reference hazard when the caller's clock goes out
// of scope).  Layer evaluation is closed-form on every backend — per-layer
// mode selection and pricing use the engine's optimizer and power model,
// and a memory-enabled layer's DRAM, stall and scratchpad fields are the
// engine's cached estimate (evaluate_cached) at the chosen mode — so a
// ModelReport is backend-independent by construction, and a design point
// plans each distinct layer shape once.
//
// When the engine has a worker pool (its config requested threads, or a
// shared pool was injected), run() evaluates independent layers in
// parallel; reports are identical to serial runs.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/energy.h"
#include "arch/optimizer.h"
#include "arch/power_model.h"
#include "engine/engine.h"
#include "nn/mapper.h"
#include "nn/models.h"

namespace af::nn {

struct LayerReport {
  std::string name;
  LayerKind kind = LayerKind::kConv;
  gemm::GemmShape shape;
  double k_hat = 0.0;                  // Eq. 7 continuous optimum
  arch::ModeDecision arrayflex;        // Eq. 6 discrete argmin
  arch::ModeDecision conventional;
  arch::PowerResult arrayflex_power;
  arch::PowerResult conventional_power;

  // Memory-hierarchy footprint of the ArrayFlex execution at the chosen
  // mode: the engine's evaluate_cached(shape, k) fields.  All zero when the
  // engine runs with magic memory (MemoryConfig::enabled == false).
  std::int64_t dram_bytes = 0;
  std::int64_t stall_cycles = 0;
  std::int64_t spad_peak_bytes = 0;

  // Per-layer execution-time savings of ArrayFlex over the conventional SA
  // (negative when the conventional SA's faster clock wins).
  double time_savings() const {
    return 1.0 - arrayflex.time_ps / conventional.time_ps;
  }
};

struct ModelReport {
  std::string model_name;
  std::vector<LayerReport> layers;

  double arrayflex_time_ps = 0.0;
  double conventional_time_ps = 0.0;
  double arrayflex_energy_pj = 0.0;
  double conventional_energy_pj = 0.0;

  // Whole-model memory-hierarchy totals (sums over layers; spad_peak_bytes
  // is the max, since layers execute back to back on one scratchpad).
  // All zero with magic memory.
  std::int64_t arrayflex_dram_bytes = 0;
  std::int64_t arrayflex_stall_cycles = 0;
  std::int64_t spad_peak_bytes = 0;

  double arrayflex_avg_power_mw() const;
  double conventional_avg_power_mw() const;

  // Layer count per chosen mode k.
  std::map<int, int> mode_histogram() const;

  // Average ArrayFlex power over the layers executed in mode k (the
  // per-mode bars of Fig. 9).
  std::map<int, double> power_by_mode_mw() const;

  arch::EfficiencyComparison totals() const;
};

class InferenceRunner {
 public:
  // The runner shares the engine (and thereby its config, clock, energy
  // params and worker pool); build one with engine::EngineBuilder.
  explicit InferenceRunner(std::shared_ptr<engine::Engine> engine);

  LayerReport evaluate_layer(const Layer& layer) const;
  ModelReport run(const Model& model) const;

  const arch::ArrayConfig& config() const { return engine_->config(); }
  const engine::Engine& engine() const { return *engine_; }

 private:
  std::shared_ptr<engine::Engine> engine_;
};

}  // namespace af::nn
