// Per-layer pipeline-depth selection — Eq. (6) argmin and Eq. (7)'s
// closed-form continuous optimum.

#pragma once

#include <vector>

#include "arch/clocking.h"
#include "arch/config.h"
#include "gemm/tiling.h"

namespace af::arch {

struct ModeDecision {
  int k = 1;
  std::int64_t cycles = 0;   // Ltotal(k), Eq. 4
  double period_ps = 0.0;    // Tclock(k), Eq. 5
  double time_ps = 0.0;      // Tabs(k),  Eq. 6
};

struct ModeSweepEntry {
  ModeDecision decision;
  bool is_best = false;
};

class PipelineOptimizer {
 public:
  PipelineOptimizer(const ArrayConfig& config, const ClockModel& clock);

  // Evaluate one mode (Eq. 6).
  ModeDecision evaluate(const gemm::GemmShape& shape, int k) const;

  // Discrete argmin of Tabs over the array's supported modes.
  ModeDecision best_mode(const gemm::GemmShape& shape) const;

  // All supported modes with the winner flagged (used by the Fig. 5 bench).
  std::vector<ModeSweepEntry> sweep(const gemm::GemmShape& shape) const;

  // Eq. (7): continuous k-hat = sqrt((R+C)/(R+T-2) * base/collapse).
  double continuous_k_hat(const gemm::GemmShape& shape) const;

  // Nearest supported mode to the continuous optimum (the paper notes the
  // discrete argmin is "approximated fairly accurately" by Eq. 7; the
  // agreement between the two is quantified by bench_eq7_model).
  int rounded_k_hat(const gemm::GemmShape& shape) const;

  // Conventional fixed-pipeline baseline: k = 1 cycles at the conventional
  // clock (no configurability overhead).
  ModeDecision conventional(const gemm::GemmShape& shape) const;

 private:
  ArrayConfig config_;
  const ClockModel& clock_;
};

// --- asymmetric collapse (extension; see arch/array.h run_tile_asym) -------

struct AsymmetricDecision {
  int k_v = 1;
  int k_h = 1;
  std::int64_t cycles = 0;
  double period_ps = 0.0;
  double time_ps = 0.0;
};

// 2D argmin over (k_v, k_h) pairs drawn from the array's supported modes,
// using the asymmetric latency formula and asymmetric_period_ps.  The paper
// only explores the diagonal k_v == k_h; because horizontal collapse barely
// costs clock, the off-diagonal optimum (typically k_h >= k_v) recovers
// extra time on wide arrays.
class AsymmetricOptimizer {
 public:
  AsymmetricOptimizer(const ArrayConfig& config, const DelayProfile& profile,
                      double conventional_period_ps);

  AsymmetricDecision evaluate(const gemm::GemmShape& shape, int k_v,
                              int k_h) const;
  AsymmetricDecision best(const gemm::GemmShape& shape) const;
  // Best symmetric decision under the same delay profile (for fair
  // comparison with the paper's scheme).
  AsymmetricDecision best_symmetric(const gemm::GemmShape& shape) const;
  double conventional_time_ps(const gemm::GemmShape& shape) const;

 private:
  ArrayConfig config_;
  DelayProfile profile_;
  double conventional_ps_;
};

}  // namespace af::arch
