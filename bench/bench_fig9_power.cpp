// FIG9 — Average power for complete runs of the three CNNs on 128x128 and
// 256x256 arrays, with ArrayFlex's per-mode power shown separately (paper
// Fig. 9), plus the headline EDP comparison.
//
// Paper bands: savings of 13-15% (128x128) rising to 17-23% (256x256);
// combined energy-delay-product gain 1.4x-1.8x.  SRAM/peripheral power is
// out of scope in the paper and here.

#include <iostream>

#include "arch/clocking.h"
#include "arch/power_model.h"
#include "engine/engine.h"
#include "nn/models.h"
#include "nn/runner.h"
#include "sim/report.h"
#include "util/strings.h"
#include "util/table.h"

using namespace af;

int main() {
  const arch::CalibratedClockModel clock = arch::CalibratedClockModel::date23();
  std::cout << "Reproduces paper Fig. 9 (DATE 2023).\n\n";

  // Per-mode steady-state power — the separated bars of Fig. 9.
  std::cout << sim::banner("Steady-state power per pipeline mode");
  Table modes({"array", "conventional", "ArrayFlex k=1", "k=2", "k=4"});
  modes.set_align(0, Table::Align::kLeft);
  for (const int side : {128, 256}) {
    const arch::ArrayConfig cfg = arch::ArrayConfig::square(side);
    const arch::SaPowerModel power(cfg, clock);
    const double conv = power.steady_power_conventional_mw();
    const auto cell = [&](int k) {
      const double mw = power.steady_power_arrayflex_mw(k);
      return format("%.0f mW (%.3fx)", mw, mw / conv);
    };
    modes.add_row({format("%dx%d", side, side), format("%.0f mW", conv),
                   cell(1), cell(2), cell(4)});
  }
  std::cout << modes
            << "\nArrayFlex draws more power than the conventional SA in "
               "normal mode (k=1)\nand less in the shallow modes — the "
               "paper's Section IV-B observation.\n\n";

  sim::CsvReport csv({"array", "model", "conv_mw", "arrayflex_mw",
                      "power_savings", "energy_ratio", "edp_gain"});
  for (const int side : {128, 256}) {
    const arch::ArrayConfig cfg = arch::ArrayConfig::square(side);
    // The builder's default clock is `clock` above (date23).
    const nn::InferenceRunner runner(
        engine::EngineBuilder().config(cfg).build("analytic"));
    std::cout << sim::banner(format("%dx%d PEs: full-run average power", side, side));
    Table table({"model", "conventional", "ArrayFlex", "savings",
                 "per-mode mW (k1/k2/k4)", "EDP gain"});
    table.set_align(0, Table::Align::kLeft);

    for (const nn::Model& model : nn::paper_models()) {
      const nn::ModelReport r = runner.run(model);
      const auto by_mode = r.power_by_mode_mw();
      const auto mode_mw = [&by_mode](int k) {
        const auto it = by_mode.find(k);
        return it == by_mode.end() ? std::string("-")
                                   : format("%.0f", it->second);
      };
      const arch::EfficiencyComparison e = r.totals();
      table.add_row({model.name,
                     format("%.0f mW", r.conventional_avg_power_mw()),
                     format("%.0f mW", r.arrayflex_avg_power_mw()),
                     percent(e.power_savings()),
                     mode_mw(1) + "/" + mode_mw(2) + "/" + mode_mw(4),
                     format("%.2fx", e.edp_gain)});
      csv.add_row({std::to_string(side), model.name,
                   fixed(r.conventional_avg_power_mw(), 1),
                   fixed(r.arrayflex_avg_power_mw(), 1),
                   fixed(e.power_savings(), 4), fixed(e.energy_ratio, 4),
                   fixed(e.edp_gain, 3)});
    }
    std::cout << table << "\n";
  }

  std::cout << "Paper reference: power savings 13-15% (128x128) and 17-23% "
               "(256x256);\ncombined energy-delay-product efficiency "
               "1.4x-1.8x.  SRAM/peripheral power omitted.\n";
  if (csv.write_to("fig9_power.csv")) {
    std::cout << "(series written to fig9_power.csv)\n";
  }
  return 0;
}
