#include "arch/optimizer.h"

#include <cmath>
#include <limits>

#include "arch/latency.h"
#include "util/status.h"

namespace af::arch {

PipelineOptimizer::PipelineOptimizer(const ArrayConfig& config,
                                     const ClockModel& clock)
    : config_(config), clock_(clock) {
  config_.validate();
}

ModeDecision PipelineOptimizer::evaluate(const gemm::GemmShape& shape,
                                         int k) const {
  ModeDecision d;
  d.k = k;
  d.cycles = total_latency_cycles(shape, config_, k);
  d.period_ps = clock_.period_ps(k);
  d.time_ps = absolute_time_ps(d.cycles, d.period_ps);
  return d;
}

ModeDecision PipelineOptimizer::best_mode(const gemm::GemmShape& shape) const {
  ModeDecision best;
  best.time_ps = std::numeric_limits<double>::infinity();
  for (const int k : config_.supported_k) {
    const ModeDecision d = evaluate(shape, k);
    if (d.time_ps < best.time_ps) best = d;
  }
  return best;
}

std::vector<ModeSweepEntry> PipelineOptimizer::sweep(
    const gemm::GemmShape& shape) const {
  std::vector<ModeSweepEntry> out;
  out.reserve(config_.supported_k.size());
  std::size_t best = 0;  // the first minimum, as in best_mode
  for (const int k : config_.supported_k) {
    out.push_back({evaluate(shape, k), false});
    if (out.back().decision.time_ps < out[best].decision.time_ps) {
      best = out.size() - 1;
    }
  }
  out[best].is_best = true;
  return out;
}

double PipelineOptimizer::continuous_k_hat(const gemm::GemmShape& shape) const {
  // Eq. (7): k-hat = sqrt( (R+C)/(R+T-2) * (dFF+dmul+dadd)/(dCSA+2dmux) ).
  const double r = config_.rows;
  const double c = config_.cols;
  const double t = static_cast<double>(shape.t);
  AF_CHECK(r + t - 2.0 > 0.0, "degenerate shape for k-hat");
  const double geometry = (r + c) / (r + t - 2.0);
  const double delays = clock_.base_delay_ps() / clock_.collapse_delay_ps();
  return std::sqrt(geometry * delays);
}

int PipelineOptimizer::rounded_k_hat(const gemm::GemmShape& shape) const {
  const double k_hat = continuous_k_hat(shape);
  int best = config_.supported_k.front();
  double best_dist = std::numeric_limits<double>::infinity();
  for (const int k : config_.supported_k) {
    const double dist = std::fabs(static_cast<double>(k) - k_hat);
    if (dist < best_dist) {
      best_dist = dist;
      best = k;
    }
  }
  return best;
}

ModeDecision PipelineOptimizer::conventional(const gemm::GemmShape& shape) const {
  ModeDecision d;
  d.k = 1;
  d.cycles = total_latency_cycles(shape, config_, 1);
  d.period_ps = clock_.conventional_period_ps();
  d.time_ps = absolute_time_ps(d.cycles, d.period_ps);
  return d;
}

// ------------------------------------------------------------- asymmetric

AsymmetricOptimizer::AsymmetricOptimizer(const ArrayConfig& config,
                                         const DelayProfile& profile,
                                         double conventional_period_ps)
    : config_(config), profile_(profile),
      conventional_ps_(conventional_period_ps) {
  config_.validate();
  AF_CHECK(conventional_ps_ > 0, "conventional period must be positive");
}

AsymmetricDecision AsymmetricOptimizer::evaluate(const gemm::GemmShape& shape,
                                                 int k_v, int k_h) const {
  AsymmetricDecision d;
  d.k_v = k_v;
  d.k_h = k_h;
  d.cycles = total_latency_cycles_asym(shape, config_, k_v, k_h);
  d.period_ps = asymmetric_period_ps(profile_, k_v, k_h);
  d.time_ps = absolute_time_ps(d.cycles, d.period_ps);
  return d;
}

AsymmetricDecision AsymmetricOptimizer::best(const gemm::GemmShape& shape) const {
  AsymmetricDecision best;
  best.time_ps = std::numeric_limits<double>::infinity();
  for (const int k_v : config_.supported_k) {
    for (const int k_h : config_.supported_k) {
      const AsymmetricDecision d = evaluate(shape, k_v, k_h);
      if (d.time_ps < best.time_ps) best = d;
    }
  }
  return best;
}

AsymmetricDecision AsymmetricOptimizer::best_symmetric(
    const gemm::GemmShape& shape) const {
  AsymmetricDecision best;
  best.time_ps = std::numeric_limits<double>::infinity();
  for (const int k : config_.supported_k) {
    const AsymmetricDecision d = evaluate(shape, k, k);
    if (d.time_ps < best.time_ps) best = d;
  }
  return best;
}

double AsymmetricOptimizer::conventional_time_ps(
    const gemm::GemmShape& shape) const {
  return absolute_time_ps(total_latency_cycles(shape, config_, 1),
                          conventional_ps_);
}

}  // namespace af::arch
