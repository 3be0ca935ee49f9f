#include "nn/runner.h"

#include <algorithm>

#include "util/status.h"
#include "util/thread_pool.h"

namespace af::nn {

double ModelReport::arrayflex_avg_power_mw() const {
  return arrayflex_time_ps > 0 ? arrayflex_energy_pj / arrayflex_time_ps * 1e3
                               : 0.0;
}

double ModelReport::conventional_avg_power_mw() const {
  return conventional_time_ps > 0
             ? conventional_energy_pj / conventional_time_ps * 1e3
             : 0.0;
}

std::map<int, int> ModelReport::mode_histogram() const {
  std::map<int, int> hist;
  for (const LayerReport& l : layers) ++hist[l.arrayflex.k];
  return hist;
}

std::map<int, double> ModelReport::power_by_mode_mw() const {
  std::map<int, double> energy_pj;
  std::map<int, double> time_ps;
  for (const LayerReport& l : layers) {
    energy_pj[l.arrayflex.k] += l.arrayflex_power.energy_pj;
    time_ps[l.arrayflex.k] += l.arrayflex_power.time_ps;
  }
  std::map<int, double> out;
  for (const auto& [k, e] : energy_pj) {
    out[k] = time_ps[k] > 0 ? e / time_ps[k] * 1e3 : 0.0;
  }
  return out;
}

arch::EfficiencyComparison ModelReport::totals() const {
  arch::PowerResult af{arrayflex_energy_pj, arrayflex_time_ps};
  arch::PowerResult conv{conventional_energy_pj, conventional_time_ps};
  return arch::compare(af, conv);
}

InferenceRunner::InferenceRunner(std::shared_ptr<engine::Engine> engine)
    : engine_(std::move(engine)) {
  AF_CHECK(engine_ != nullptr, "InferenceRunner needs an engine");
}

LayerReport InferenceRunner::evaluate_layer(const Layer& layer) const {
  const arch::PipelineOptimizer& optimizer = engine_->optimizer();
  const arch::SaPowerModel& power = engine_->power();
  LayerReport report;
  report.name = layer.name;
  report.kind = layer.kind;
  report.shape = gemm_shape(layer);
  report.k_hat = optimizer.continuous_k_hat(report.shape);
  // Memoized through the engine's shared cost cache: repeated layers (and
  // repeated inferences of the same model, the serving steady state) pay
  // the Eq. 6 sweep once and answer every repeat from the plan store.
  report.arrayflex = engine_->plan(report.shape)->best;
  report.conventional = optimizer.conventional(report.shape);
  report.arrayflex_power = power.arrayflex(report.shape, report.arrayflex.k);
  report.conventional_power = power.conventional(report.shape);
  if (engine_->config().mem.enabled) {
    // The engine's memoized estimate at the chosen mode: one DMA plan per
    // distinct shape, shared with every other evaluate_cached /
    // evaluate_batch caller on the same cost cache.
    const engine::CostEstimate est =
        engine_->evaluate_cached(report.shape, report.arrayflex.k);
    report.dram_bytes = est.dram_bytes;
    report.stall_cycles = est.stall_cycles;
    report.spad_peak_bytes = est.spad_peak_bytes;
  }
  return report;
}

ModelReport InferenceRunner::run(const Model& model) const {
  AF_CHECK(!model.layers.empty(), "model '" << model.name << "' has no layers");
  ModelReport report;
  report.model_name = model.name;
  const std::int64_t n = static_cast<std::int64_t>(model.layers.size());
  report.layers.resize(model.layers.size());

  // Layers are independent; fan them out when the engine carries a pool.
  // evaluate_layer is const and touches only read-only model state, so
  // workers share `this` freely; the aggregation below stays sequential in
  // layer order, making the report identical to a serial run.
  util::ThreadPool::run_n(engine_->pool(), n, [&](std::int64_t i) {
    report.layers[static_cast<std::size_t>(i)] =
        evaluate_layer(model.layers[static_cast<std::size_t>(i)]);
  });
  for (const LayerReport& lr : report.layers) {
    report.arrayflex_time_ps += lr.arrayflex.time_ps;
    report.conventional_time_ps += lr.conventional.time_ps;
    report.arrayflex_energy_pj += lr.arrayflex_power.energy_pj;
    report.conventional_energy_pj += lr.conventional_power.energy_pj;
    report.arrayflex_dram_bytes += lr.dram_bytes;
    report.arrayflex_stall_cycles += lr.stall_cycles;
    report.spad_peak_bytes = std::max(report.spad_peak_bytes,
                                      lr.spad_peak_bytes);
  }
  return report;
}

}  // namespace af::nn
