// FIG8 — Normalized total execution time for ResNet-34, MobileNet and
// ConvNeXt on 128x128 and 256x256 arrays (paper Fig. 8).
//
// The paper reports ArrayFlex 9-11% faster across CNNs and array sizes,
// with the savings growing on the larger array because more layers prefer
// k = 4 (consistent with Eq. 7's k-hat ~ sqrt(R + C)).

#include <iostream>

#include "engine/engine.h"
#include "nn/models.h"
#include "nn/runner.h"
#include "sim/report.h"
#include "util/strings.h"
#include "util/table.h"

using namespace af;

int main() {
  std::cout << "Reproduces paper Fig. 8 (DATE 2023).\n\n";
  sim::CsvReport csv({"array", "model", "conv_time_us", "arrayflex_time_us",
                      "normalized", "savings", "k1_layers", "k2_layers",
                      "k4_layers"});

  for (const int side : {128, 256}) {
    const arch::ArrayConfig cfg = arch::ArrayConfig::square(side);
    // The builder's default clock is the paper's calibration (date23).
    const nn::InferenceRunner runner(
        engine::EngineBuilder().config(cfg).build("analytic"));
    std::cout << sim::banner(format("%dx%d PEs", side, side));
    Table table({"model", "conventional", "ArrayFlex", "normalized",
                 "savings", "modes k1/k2/k4"});
    table.set_align(0, Table::Align::kLeft);

    for (const nn::Model& model : nn::paper_models()) {
      const nn::ModelReport r = runner.run(model);
      const auto hist = r.mode_histogram();
      const auto count = [&hist](int k) {
        const auto it = hist.find(k);
        return it == hist.end() ? 0 : it->second;
      };
      const double normalized = r.arrayflex_time_ps / r.conventional_time_ps;
      table.add_row({model.name, format_time_ps(r.conventional_time_ps),
                     format_time_ps(r.arrayflex_time_ps),
                     fixed(normalized, 3),
                     percent(r.totals().latency_savings()),
                     format("%d/%d/%d", count(1), count(2), count(4))});
      csv.add_row({std::to_string(side), model.name,
                   fixed(r.conventional_time_ps / 1e6, 2),
                   fixed(r.arrayflex_time_ps / 1e6, 2), fixed(normalized, 4),
                   fixed(r.totals().latency_savings(), 4),
                   std::to_string(count(1)), std::to_string(count(2)),
                   std::to_string(count(4))});
    }
    std::cout << table << "\n";
  }

  std::cout << "Paper reference: ArrayFlex lowers execution latency by 9-11% "
               "in all cases;\nsavings increase for larger SAs as more layers "
               "prefer k=4.\n";
  if (csv.write_to("fig8_total_time.csv")) {
    std::cout << "(series written to fig8_total_time.csv)\n";
  }
  return 0;
}
