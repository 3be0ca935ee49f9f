// FIG7 — Per-layer execution time of ConvNeXt on 128x128 arrays (paper
// Fig. 7): conventional SA vs. ArrayFlex with the per-layer optimal
// pipeline depth.
//
// Paper narrative to reproduce: the first ~11 layers prefer the normal
// pipeline (conventional wins there on clock), the mid-network runs k = 2,
// layers 47-55 run k = 4; per-layer savings reach ~26% and the total is
// ~11%.

#include <iostream>

#include "engine/engine.h"
#include "nn/models.h"
#include "nn/runner.h"
#include "sim/report.h"
#include "util/strings.h"
#include "util/table.h"

using namespace af;

int main() {
  const arch::ArrayConfig cfg = arch::ArrayConfig::square(128);
  // The builder's default clock is the paper's calibration (date23).
  const nn::InferenceRunner runner(
      engine::EngineBuilder().config(cfg).build("analytic"));
  const nn::ModelReport report = runner.run(nn::convnext_tiny());

  std::cout << "Reproduces paper Fig. 7 (DATE 2023).\nArray: "
            << cfg.to_string() << "\n\n";
  std::cout << sim::banner("ConvNeXt-T per-layer execution time");

  Table table({"#", "layer", "kind", "M", "N", "T", "k-hat", "k", "conv time",
               "ArrayFlex", "savings"});
  table.set_align(1, Table::Align::kLeft);
  table.set_align(2, Table::Align::kLeft);
  sim::CsvReport csv({"layer", "name", "kind", "M", "N", "T", "k_hat", "k",
                      "conv_time_ps", "arrayflex_time_ps", "savings"});

  int index = 0;
  for (const auto& l : report.layers) {
    ++index;
    table.add_row({std::to_string(index), l.name,
                   nn::layer_kind_name(l.kind), std::to_string(l.shape.m),
                   std::to_string(l.shape.n), std::to_string(l.shape.t),
                   fixed(l.k_hat, 2), std::to_string(l.arrayflex.k),
                   format_time_ps(l.conventional.time_ps),
                   format_time_ps(l.arrayflex.time_ps),
                   percent(l.time_savings())});
    csv.add_row({std::to_string(index), l.name, nn::layer_kind_name(l.kind),
                 std::to_string(l.shape.m), std::to_string(l.shape.n),
                 std::to_string(l.shape.t), fixed(l.k_hat, 3),
                 std::to_string(l.arrayflex.k), fixed(l.conventional.time_ps, 0),
                 fixed(l.arrayflex.time_ps, 0), fixed(l.time_savings(), 4)});
  }
  std::cout << table;

  // Mode regions, as the paper describes them.
  int first_k2 = 0, first_k4 = 0;
  index = 0;
  for (const auto& l : report.layers) {
    ++index;
    if (l.arrayflex.k >= 2 && first_k2 == 0) first_k2 = index;
    if (l.arrayflex.k == 4 && first_k4 == 0) first_k4 = index;
  }
  double best = 0.0;
  for (const auto& l : report.layers) best = std::max(best, l.time_savings());

  std::cout << format(
      "\nmode regions: k=1 through layer %d; k=2 from layer %d; k=4 from "
      "layer %d (of %zu)\n",
      first_k2 - 1, first_k2, first_k4, report.layers.size());
  std::cout << format("max per-layer savings: %s   total savings: %s\n",
                      percent(best).c_str(),
                      percent(report.totals().latency_savings()).c_str());
  std::cout << "\nPaper reference: normal pipeline for the first 11 layers, "
               "k=2 for 12-46,\nk=4 for 47-55; savings per layer up to 26%, "
               "total 11%.\n";
  if (csv.write_to("fig7_convnext_layers.csv")) {
    std::cout << "(per-layer series written to fig7_convnext_layers.csv)\n";
  }
  return 0;
}
