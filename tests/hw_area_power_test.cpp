// Area accounting (Fig. 6's overhead analysis).  Gate-level energy is
// tested with its one pricer, characterize_energy, in
// hw_energy_characterization_test.

#include <gtest/gtest.h>

#include "hw/area.h"
#include "hw/builders/pe_datapath.h"
#include "hw/netlist.h"
#include "util/status.h"

namespace af::hw {
namespace {

TEST(AreaTest, SumsCellAreas) {
  Netlist nl;
  const NetId a = nl.new_net();
  const NetId y1 = nl.new_net();
  const NetId y2 = nl.new_net();
  {
    ScopedName s(nl, "grp");
    nl.add_cell(CellType::kInv, "i", {a}, {y1});
  }
  nl.add_cell(CellType::kXor2, "x", {a, y1}, {y2});
  const AreaBreakdown area = compute_area(nl);
  EXPECT_DOUBLE_EQ(area.total_um2, cell_info(CellType::kInv).area_um2 +
                                       cell_info(CellType::kXor2).area_um2);
  EXPECT_DOUBLE_EQ(area.group_um2("grp"), cell_info(CellType::kInv).area_um2);
  EXPECT_DOUBLE_EQ(area.group_um2("top"), cell_info(CellType::kXor2).area_um2);
  EXPECT_EQ(area.cell_count, 2);
  EXPECT_GT(area.group_fraction("grp"), 0.0);
  EXPECT_EQ(area.group_um2("missing"), 0.0);
}

TEST(AreaTest, ArrayFlexPeOverheadInExpectedRange) {
  // Fig. 6: the configurability hardware (CSA + bypass muxes + config bits)
  // costs a modest per-PE overhead (paper's placed layout: ~16%; our
  // cell-area sum, which cannot see placement/routing overhead: ~8-16%).
  Netlist conv, af;
  build_conventional_pe(conv, {32, 64});
  build_arrayflex_pe(af, {32, 64});
  const double overhead = area_overhead(compute_area(conv), compute_area(af));
  EXPECT_GT(overhead, 0.05);
  EXPECT_LT(overhead, 0.20);
}

TEST(AreaTest, OverheadComesFromCsaAndMuxes) {
  Netlist af;
  build_arrayflex_pe(af, {32, 64});
  const AreaBreakdown area = compute_area(af);
  // The attribution groups must exist and the CSA/mux/cfg groups together
  // must explain most of the delta over a conventional PE.
  Netlist conv;
  build_conventional_pe(conv, {32, 64});
  const double delta = area.total_um2 - compute_area(conv).total_um2;
  const double attributed = area.group_um2("pe0");  // everything is under pe0
  EXPECT_GT(attributed, 0.0);
  double config_hw = 0.0;
  for (const auto& [group, um2] : area.by_group_um2) {
    (void)um2;
  }
  // by_cell_type: all MUX2 cells are configurability hardware.
  config_hw += area.by_cell_type_um2.at("MUX2");
  config_hw += 64 * cell_info(CellType::kFullAdder).area_um2;  // CSA row
  EXPECT_GT(config_hw, 0.75 * delta);
}

TEST(AreaTest, OverheadRejectsEmptyBaseline) {
  Netlist empty;
  Netlist af;
  build_arrayflex_pe(af, {8, 16});
  EXPECT_THROW(area_overhead(compute_area(empty), compute_area(af)), Error);
}

}  // namespace
}  // namespace af::hw
