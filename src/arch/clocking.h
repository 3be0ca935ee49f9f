// Clock-period models — Equation (5) and its calibrations.
//
// Three interchangeable models, all exposing the same interface:
//
//   * CalibratedClockModel — the paper's silicon-calibrated table
//     (Section IV: conventional 2.0 GHz; ArrayFlex 1.8 / 1.7 / 1.4 GHz for
//     k = 1 / 2 / 4), with monotone quadratic interpolation for depths the
//     paper does not publish (k = 3 in the Fig. 5 study).  Default for all
//     paper-figure benches.
//
//   * AnalyticClockModel — Eq. 5 directly:
//     Tclock(k) = dFF + dmul + dadd + k (dCSA + 2 dmux), from an explicit
//     DelayProfile.
//
//   * StaClockModel — derives the delays by running static timing analysis
//     on gate-level collapsed-column netlists (hw/builders), globally scaled
//     so the conventional PE closes at a chosen anchor period.
//
// Every model also exposes the Eq. 7 coefficients (base and per-k collapse
// delay) so the optimizer's continuous k-hat stays consistent with whichever
// model is active.

#pragma once

#include <map>
#include <memory>
#include <mutex>

namespace af::arch {

// Delay constants of Eq. 5, in picoseconds.
struct DelayProfile {
  double d_ff = 0.0;   // clk-to-q + setup
  double d_mul = 0.0;
  double d_add = 0.0;
  double d_csa = 0.0;
  double d_mux = 0.0;

  double base_ps() const { return d_ff + d_mul + d_add; }
  double collapse_ps() const { return d_csa + 2.0 * d_mux; }
};

class ClockModel {
 public:
  virtual ~ClockModel() = default;

  // ArrayFlex minimum clock period in mode k.
  virtual double period_ps(int k) const = 0;

  // Conventional (non-configurable) SA period: no CSA/mux overhead in the
  // critical path, so it runs faster than ArrayFlex even at k = 1.
  virtual double conventional_period_ps() const = 0;

  // Eq. 7 coefficients: dFF + dmul + dadd and dCSA + 2 dmux.
  virtual double base_delay_ps() const = 0;
  virtual double collapse_delay_ps() const = 0;

  double frequency_ghz(int k) const { return 1e3 / period_ps(k); }
  double conventional_frequency_ghz() const {
    return 1e3 / conventional_period_ps();
  }
};

// Eq. 5 with explicit constants.
class AnalyticClockModel : public ClockModel {
 public:
  // `conventional_period_ps` defaults to base_ps() (a conventional PE has
  // the same FF + multiplier + adder path, minus configurability overhead);
  // pass a smaller value to model the configurability-free design.
  explicit AnalyticClockModel(const DelayProfile& profile,
                              double conventional_period_ps = 0.0);

  double period_ps(int k) const override;
  double conventional_period_ps() const override { return conventional_ps_; }
  double base_delay_ps() const override { return profile_.base_ps(); }
  double collapse_delay_ps() const override { return profile_.collapse_ps(); }

  const DelayProfile& profile() const { return profile_; }

  // Eq. 5 constants back-fitted to the paper's frequency table, anchored at
  // the 2 GHz conventional design.
  static AnalyticClockModel paper_fit();

 private:
  DelayProfile profile_;
  double conventional_ps_;
};

// The paper's measured frequency table with interpolation between points.
class CalibratedClockModel : public ClockModel {
 public:
  // `points` maps k -> period_ps; needs at least two entries.
  CalibratedClockModel(double conventional_period_ps,
                       std::map<int, double> points);

  double period_ps(int k) const override;
  double conventional_period_ps() const override { return conventional_ps_; }
  double base_delay_ps() const override { return base_ps_; }
  double collapse_delay_ps() const override { return collapse_ps_; }

  // Section IV of the paper: 2.0 GHz conventional, {1.8, 1.7, 1.4} GHz for
  // k = {1, 2, 4}.
  static CalibratedClockModel date23();

 private:
  double conventional_ps_;
  std::map<int, double> points_;
  // Quadratic interpolation coefficients (fit through first/mid/last point).
  double qa_ = 0.0, qb_ = 0.0, qc_ = 0.0;
  double base_ps_ = 0.0, collapse_ps_ = 0.0;
};

// Minimum clock period under asymmetric collapse: the vertical chain pays
// k_v CSAs + k_v bypass muxes, the horizontal broadcast pays k_h muxes, so
//   Tclock(k_v, k_h) = dFF + dmul + dadd + k_v (dCSA + dmux) + k_h dmux.
// Reduces to Eq. 5 when k_v == k_h.  Horizontal-only collapse is nearly
// free in clock ("column collapsing only affects the delay marginally",
// paper Section III-A) — the asymmetric optimizer exploits exactly that.
double asymmetric_period_ps(const DelayProfile& profile, int k_v, int k_h);

// STA-derived: builds gate-level collapsed columns and times them.
class StaClockModel : public ClockModel {
 public:
  // `anchor_conventional_ps`: the conventional PE is scaled to close at this
  // period (paper anchor: 500 ps = 2 GHz); all other measurements share the
  // scale factor.  `input_bits`/`acc_bits` select the datapath width.
  StaClockModel(double anchor_conventional_ps = 500.0, int input_bits = 32,
                int acc_bits = 64);

  double period_ps(int k) const override;
  double conventional_period_ps() const override { return anchor_ps_; }
  double base_delay_ps() const override;
  double collapse_delay_ps() const override;

  // The global delay-scale factor chosen by calibration.
  double delay_scale() const { return scale_; }

  // Unscaled STA result for a k-collapsed column (ps, scale = 1).
  double raw_collapsed_period_ps(int k) const;

 private:
  double anchor_ps_;
  int input_bits_;
  int acc_bits_;
  double scale_ = 1.0;
  // Lazy STA results; the mutex makes period_ps safe to call from the
  // parallel layer-evaluation path (nn::InferenceRunner with num_threads>1).
  mutable std::mutex cache_mutex_;
  mutable std::map<int, double> cache_;  // k -> scaled period
};

}  // namespace af::arch
