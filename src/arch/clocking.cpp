#include "arch/clocking.h"

#include "hw/builders/pe_datapath.h"
#include "hw/netlist.h"
#include "hw/sta.h"
#include "util/status.h"

namespace af::arch {

// ---------------------------------------------------------------- analytic

AnalyticClockModel::AnalyticClockModel(const DelayProfile& profile,
                                       double conventional_period_ps)
    : profile_(profile),
      conventional_ps_(conventional_period_ps > 0.0 ? conventional_period_ps
                                                    : profile.base_ps()) {
  AF_CHECK(profile_.base_ps() > 0, "delay profile base must be positive");
  AF_CHECK(profile_.collapse_ps() > 0,
           "delay profile collapse term must be positive");
}

double AnalyticClockModel::period_ps(int k) const {
  AF_CHECK(k >= 1, "collapse depth must be >= 1");
  return profile_.base_ps() + static_cast<double>(k) * profile_.collapse_ps();
}

AnalyticClockModel AnalyticClockModel::paper_fit() {
  // Fit of Eq. 5 through the paper's published ArrayFlex endpoints
  // (k=1 -> 555.6 ps, k=4 -> 714.3 ps): per-k collapse term
  // (714.3 - 555.6) / 3 = 52.9 ps and base 555.6 - 52.9 = 502.7 ps.
  // The split of the base into FF/mul/add and of the collapse term into
  // CSA/mux follows the relative magnitudes of the STA model.
  DelayProfile p;
  p.d_ff = 75.0;
  p.d_mul = 302.7;
  p.d_add = 125.0;
  p.d_csa = 30.9;
  p.d_mux = 11.0;
  return AnalyticClockModel(p, /*conventional_period_ps=*/500.0);
}

double asymmetric_period_ps(const DelayProfile& profile, int k_v, int k_h) {
  AF_CHECK(k_v >= 1 && k_h >= 1, "collapse depths must be >= 1");
  return profile.base_ps() + k_v * (profile.d_csa + profile.d_mux) +
         k_h * profile.d_mux;
}

// -------------------------------------------------------------- calibrated

CalibratedClockModel::CalibratedClockModel(double conventional_period_ps,
                                           std::map<int, double> points)
    : conventional_ps_(conventional_period_ps), points_(std::move(points)) {
  AF_CHECK(conventional_ps_ > 0, "conventional period must be positive");
  AF_CHECK(points_.size() >= 2, "calibration needs at least two (k, period) points");
  for (const auto& [k, ps] : points_) {
    AF_CHECK(k >= 1 && ps > 0, "bad calibration point (" << k << ", " << ps << ")");
  }

  // Quadratic through first, middle and last point (exact when only three
  // points are given, which is the paper's table).
  const auto first = points_.begin();
  auto last = points_.end();
  --last;
  auto mid = points_.begin();
  std::advance(mid, static_cast<long>(points_.size() / 2));
  if (mid == first || mid == last) {
    // Two points: linear.
    qa_ = 0.0;
    qb_ = (last->second - first->second) /
          static_cast<double>(last->first - first->first);
    qc_ = first->second - qb_ * static_cast<double>(first->first);
  } else {
    const double x1 = first->first, y1 = first->second;
    const double x2 = mid->first, y2 = mid->second;
    const double x3 = last->first, y3 = last->second;
    const double d21 = (y2 - y1) / (x2 - x1);
    const double d32 = (y3 - y2) / (x3 - x2);
    qa_ = (d32 - d21) / (x3 - x1);
    qb_ = d21 - qa_ * (x1 + x2);
    qc_ = y1 - (qa_ * x1 + qb_) * x1;
  }

  // Eq. 7 coefficients: secant through the extreme published points.
  collapse_ps_ = (last->second - first->second) /
                 static_cast<double>(last->first - first->first);
  base_ps_ = first->second - collapse_ps_ * static_cast<double>(first->first);
  AF_CHECK(collapse_ps_ > 0, "calibration points must increase with k");
}

double CalibratedClockModel::period_ps(int k) const {
  AF_CHECK(k >= 1, "collapse depth must be >= 1");
  const auto it = points_.find(k);
  if (it != points_.end()) return it->second;
  // Interpolate / extrapolate with the quadratic, clamped to stay above the
  // k=1 point (periods are monotone in k).
  const double x = static_cast<double>(k);
  const double v = (qa_ * x + qb_) * x + qc_;
  const double floor_ps = points_.begin()->second;
  return v > floor_ps ? v : floor_ps;
}

CalibratedClockModel CalibratedClockModel::date23() {
  return CalibratedClockModel(
      /*conventional_period_ps=*/500.0,
      {{1, 1e3 / 1.8}, {2, 1e3 / 1.7}, {4, 1e3 / 1.4}});
}

// --------------------------------------------------------------------- STA

StaClockModel::StaClockModel(double anchor_conventional_ps, int input_bits,
                             int acc_bits)
    : anchor_ps_(anchor_conventional_ps),
      input_bits_(input_bits),
      acc_bits_(acc_bits) {
  AF_CHECK(anchor_ps_ > 0, "anchor period must be positive");

  // Time the conventional PE at scale 1, then pick the global scale that
  // places it exactly at the anchor (paper: 2 GHz in 28 nm).
  hw::Netlist nl;
  hw::build_conventional_pe(nl, {input_bits_, acc_bits_});
  hw::Technology unit;
  hw::Sta sta(nl, unit);
  sta.set_input_arrival_ps(unit.scaled_clk_to_q_ps());
  const double raw = sta.run().min_period_ps;
  AF_CHECK(raw > 0, "conventional PE timed at zero delay");
  scale_ = anchor_ps_ / raw;
}

double StaClockModel::raw_collapsed_period_ps(int k) const {
  hw::Netlist nl;
  hw::build_collapsed_column(nl, k, /*use_csa=*/true, {input_bits_, acc_bits_});
  hw::Technology unit;
  hw::Sta sta(nl, unit);
  sta.set_input_arrival_ps(unit.scaled_clk_to_q_ps());
  for (const auto& prefix : hw::collapsed_column_false_paths(k)) {
    sta.add_false_path_prefix(prefix);
  }
  return sta.run().min_period_ps;
}

double StaClockModel::period_ps(int k) const {
  AF_CHECK(k >= 1, "collapse depth must be >= 1");
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = cache_.find(k);
    if (it != cache_.end()) return it->second;
  }
  const double ps = raw_collapsed_period_ps(k) * scale_;  // slow: runs STA
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_.emplace(k, ps);
  return ps;
}

double StaClockModel::base_delay_ps() const {
  // Extrapolate the per-k structure from two measurements: the k -> k+1
  // increment is dCSA + 2 dmux.
  const double t1 = period_ps(1);
  const double t2 = period_ps(2);
  return t1 - (t2 - t1);
}

double StaClockModel::collapse_delay_ps() const {
  return period_ps(2) - period_ps(1);
}

}  // namespace af::arch
