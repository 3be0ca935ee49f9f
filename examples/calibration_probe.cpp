// Internal calibration probe (not a paper experiment): prints the
// STA-derived delays, the clock table from all three models, the power
// ratios per mode, and the Fig. 7/8/9 aggregates so model constants can be
// sanity-checked in one place.

#include <cstdio>

#include "arch/clocking.h"
#include "arch/optimizer.h"
#include "arch/power_model.h"
#include "engine/engine.h"
#include "hw/energy_characterization.h"
#include "nn/models.h"
#include "nn/runner.h"

using namespace af;

int main() {
  arch::CalibratedClockModel cal = arch::CalibratedClockModel::date23();
  arch::AnalyticClockModel fit = arch::AnalyticClockModel::paper_fit();
  std::printf("building STA model (gate-level netlists)...\n");
  arch::StaClockModel sta(500.0);

  std::printf("clock periods (ps):  conventional  k=1     k=2     k=3     k=4\n");
  std::printf("  calibrated        %8.1f  %7.1f %7.1f %7.1f %7.1f\n",
              cal.conventional_period_ps(), cal.period_ps(1), cal.period_ps(2),
              cal.period_ps(3), cal.period_ps(4));
  std::printf("  paper-fit eq5     %8.1f  %7.1f %7.1f %7.1f %7.1f\n",
              fit.conventional_period_ps(), fit.period_ps(1), fit.period_ps(2),
              fit.period_ps(3), fit.period_ps(4));
  std::printf("  sta-derived       %8.1f  %7.1f %7.1f %7.1f %7.1f\n",
              sta.conventional_period_ps(), sta.period_ps(1), sta.period_ps(2),
              sta.period_ps(3), sta.period_ps(4));
  std::printf("  sta delay scale: %.4f; base=%.1f collapse=%.1f\n",
              sta.delay_scale(), sta.base_delay_ps(), sta.collapse_delay_ps());
  std::printf("  calibrated base=%.1f collapse=%.1f ratio=%.2f\n",
              cal.base_delay_ps(), cal.collapse_delay_ps(),
              cal.base_delay_ps() / cal.collapse_delay_ps());

  // Power ratios per fixed mode on a representative mid-network layer.
  arch::ArrayConfig cfg = arch::ArrayConfig::square(128);
  arch::SaPowerModel power(cfg, cal);
  const gemm::GemmShape shape{256, 2304, 196};
  const arch::PowerResult conv = power.conventional(shape);
  std::printf("\nsingle-shape power (M=256,N=2304,T=196), conventional = %.0f mW\n",
              conv.power_mw());
  for (int k : {1, 2, 4}) {
    const arch::PowerResult af = power.arrayflex(shape, k);
    std::printf("  k=%d: %.0f mW  ratio=%.3f\n", k, af.power_mw(),
                af.power_mw() / conv.power_mw());
  }

  // Monte-Carlo gate-level energy characterization vs. the hand-fit
  // constants: per-op energies measured from netlist toggles on the 64-lane
  // simulator (see hw/energy_characterization.h for what is observable).
  std::printf("\ncharacterizing PE energy (64-lane Monte-Carlo)...\n");
  const hw::CharacterizedEnergy ch = hw::characterize_energy();
  const arch::EnergyParams fit_params = arch::EnergyParams::generic28nm();
  std::printf("  per-op fJ:        hand-fit  characterized\n");
  std::printf("  e_mult            %8.1f  %13.1f\n", fit_params.e_mult_fj,
              ch.params.e_mult_fj);
  std::printf("  e_csa             %8.1f  %13.1f\n", fit_params.e_csa_fj,
              ch.params.e_csa_fj);
  std::printf("  e_cpa             %8.1f  %13.1f\n", fit_params.e_cpa_fj,
              ch.params.e_cpa_fj);
  std::printf("  e_bypass_mux      %8.1f  %13.1f\n",
              fit_params.e_bypass_mux_fj, ch.params.e_bypass_mux_fj);
  std::printf("  e_reg_bit         %8.2f  %13.2f\n", fit_params.e_reg_bit_fj,
              ch.params.e_reg_bit_fj);
  std::printf("  leak_mw_per_pe    %8.4f  %13.4f\n", fit_params.leak_mw_per_pe,
              ch.params.leak_mw_per_pe);
  std::printf("  (%d cells, %.0f lane-cycles, %llu toggles)\n", ch.cells,
              ch.lane_cycles,
              static_cast<unsigned long long>(ch.total_toggles));
  {
    arch::SaPowerModel characterized(cfg, cal, ch.params);
    const arch::PowerResult conv_ch = characterized.conventional(shape);
    std::printf("  power ratios with characterized params:");
    for (int k : {1, 2, 4}) {
      const arch::PowerResult af_ch = characterized.arrayflex(shape, k);
      std::printf("  k=%d %.3f", k, af_ch.power_mw() / conv_ch.power_mw());
    }
    std::printf("\n");
  }

  // Full-model aggregates at both array sizes.
  for (int side : {128, 256}) {
    arch::ArrayConfig c = arch::ArrayConfig::square(side);
    // The builder's default clock is `cal` (date23).
    nn::InferenceRunner runner(
        engine::EngineBuilder().config(c).build("analytic"));
    std::printf("\n%dx%d SA:\n", side, side);
    for (const nn::Model& model : nn::paper_models()) {
      const nn::ModelReport r = runner.run(model);
      const arch::EfficiencyComparison e = r.totals();
      std::printf(
          "  %-10s time-savings=%5.1f%%  power-savings=%5.1f%%  edp-gain=%.2fx  modes:",
          model.name.c_str(), e.latency_savings() * 100.0,
          e.power_savings() * 100.0, e.edp_gain);
      for (const auto& [k, n] : r.mode_histogram()) {
        std::printf(" k%d:%d", k, n);
      }
      std::printf("\n");
    }
  }
  return 0;
}
