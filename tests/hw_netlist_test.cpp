// Netlist construction, naming scopes, driver maps, topological ordering,
// combinational-cycle detection, and the functional netlist simulator.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hw/compiled_netlist.h"
#include "hw/netlist.h"
#include "hw/netlist_sim.h"
#include "util/status.h"

namespace af::hw {
namespace {

TEST(NetlistTest, BusAllocation) {
  Netlist nl;
  const Bus bus = nl.new_bus(8);
  EXPECT_EQ(bus.size(), 8u);
  EXPECT_EQ(nl.num_nets(), 8);
  EXPECT_THROW(nl.new_bus(-1), Error);
}

TEST(NetlistTest, AddCellValidatesArity) {
  Netlist nl;
  const NetId a = nl.new_net();
  const NetId b = nl.new_net();
  const NetId y = nl.new_net();
  EXPECT_NO_THROW(nl.add_cell(CellType::kAnd2, "g", {a, b}, {y}));
  EXPECT_THROW(nl.add_cell(CellType::kAnd2, "bad", {a}, {y}), Error);
  EXPECT_THROW(nl.add_cell(CellType::kInv, "bad2", {a}, {y, b}), Error);
  EXPECT_THROW(nl.add_cell(CellType::kInv, "bad3", {999}, {y}), Error);
}

TEST(NetlistTest, ScopedNames) {
  Netlist nl;
  const NetId a = nl.new_net();
  const NetId y = nl.new_net();
  {
    ScopedName outer(nl, "pe0");
    ScopedName inner(nl, "mul");
    nl.add_cell(CellType::kInv, "i0", {a}, {y});
  }
  EXPECT_EQ(nl.cells().back().name, "pe0/mul/i0");
  EXPECT_THROW(nl.pop_scope(), Error);
}

TEST(NetlistTest, ConstantsAreShared) {
  Netlist nl;
  const NetId z1 = nl.const0();
  const NetId z2 = nl.const0();
  EXPECT_EQ(z1, z2);
  EXPECT_NE(nl.const0(), nl.const1());
  EXPECT_EQ(nl.count_cells(CellType::kTie0), 1);
  EXPECT_EQ(nl.count_cells(CellType::kTie1), 1);
}

TEST(NetlistTest, MultipleDriversRejected) {
  Netlist nl;
  const NetId a = nl.new_net();
  const NetId y = nl.new_net();
  nl.add_cell(CellType::kInv, "g1", {a}, {y});
  nl.add_cell(CellType::kInv, "g2", {a}, {y});
  EXPECT_THROW(nl.driver_of(), Error);
}

TEST(NetlistTest, TopoOrderRespectsDependencies) {
  Netlist nl;
  const NetId a = nl.new_net();
  const NetId m = nl.new_net();
  const NetId y = nl.new_net();
  // Add in reverse dependency order on purpose.
  const int late = nl.add_cell(CellType::kInv, "second", {m}, {y});
  const int early = nl.add_cell(CellType::kInv, "first", {a}, {m});
  const auto& order = nl.topo_order();
  const auto pos = [&](int cell) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == cell) return static_cast<int>(i);
    }
    return -1;
  };
  EXPECT_LT(pos(early), pos(late));
}

TEST(NetlistTest, CombinationalCycleDetected) {
  Netlist nl;
  const NetId a = nl.new_net();
  const NetId b = nl.new_net();
  nl.add_cell(CellType::kInv, "g1", {a}, {b});
  nl.add_cell(CellType::kInv, "g2", {b}, {a});
  EXPECT_THROW(nl.topo_order(), Error);
}

TEST(NetlistTest, DffBreaksCycles) {
  // A registered feedback loop (toggle flop) is legal hardware.
  Netlist nl;
  const NetId q = nl.new_net();
  const NetId d = nl.new_net();
  nl.add_cell(CellType::kInv, "fb", {q}, {d});
  nl.add_cell(CellType::kDff, "ff", {d}, {q});
  EXPECT_NO_THROW(nl.topo_order());
  EXPECT_EQ(nl.topo_order().size(), 2u);
}

TEST(NetlistTest, BusBindingLookups) {
  Netlist nl;
  const Bus in = nl.new_bus(4);
  nl.bind_input("a", in);
  EXPECT_EQ(nl.input("a").size(), 4u);
  EXPECT_THROW(nl.input("nope"), Error);
  EXPECT_THROW(nl.bind_input("a", in), Error);
}

// ------------------------------------------------------------- simulator

TEST(NetlistSimTest, EvaluatesCombinationalLogic) {
  Netlist nl;
  const Bus a = nl.new_bus(1);
  const Bus b = nl.new_bus(1);
  const Bus y = nl.new_bus(1);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  nl.bind_output("y", y);
  nl.add_cell(CellType::kXor2, "x", {a[0], b[0]}, {y[0]});

  NetlistSim sim(nl);
  sim.set_input_u64("a", 1);
  sim.set_input_u64("b", 0);
  sim.eval();
  EXPECT_EQ(sim.get_u64("y"), 1u);
  sim.set_input_u64("b", 1);
  sim.eval();
  EXPECT_EQ(sim.get_u64("y"), 0u);
}

TEST(NetlistSimTest, DffLatchesOnStep) {
  Netlist nl;
  const Bus d = nl.new_bus(1);
  const Bus q = nl.new_bus(1);
  nl.bind_input("d", d);
  nl.bind_output("q", q);
  const int ff = nl.add_cell(CellType::kDff, "ff", {d[0]}, {q[0]});

  NetlistSim sim(nl);
  sim.set_input_u64("d", 1);
  sim.eval();
  EXPECT_EQ(sim.get_u64("q"), 0u) << "before the clock edge q holds state";
  sim.step();  // edge: state <- 1
  sim.eval();
  EXPECT_EQ(sim.get_u64("q"), 1u);
  sim.set_dff_state(ff, false);
  sim.eval();
  EXPECT_EQ(sim.get_u64("q"), 0u);
}

TEST(NetlistSimTest, ToggleCounting) {
  Netlist nl;
  const Bus a = nl.new_bus(1);
  const Bus y = nl.new_bus(1);
  nl.bind_input("a", a);
  nl.bind_output("y", y);
  nl.add_cell(CellType::kInv, "i", {a[0]}, {y[0]});

  NetlistSim sim(nl);
  sim.set_input_u64("a", 0);
  sim.eval();  // first eval establishes baseline, no toggles
  EXPECT_EQ(sim.total_toggles(), 0u);
  sim.set_input_u64("a", 1);
  sim.eval();
  EXPECT_EQ(sim.total_toggles(), 1u);
  sim.set_input_u64("a", 1);
  sim.eval();  // no change, no toggle
  EXPECT_EQ(sim.total_toggles(), 1u);
  sim.reset_activity();
  EXPECT_EQ(sim.total_toggles(), 0u);
}

TEST(NetlistSimTest, InputWidthChecked) {
  Netlist nl;
  const Bus a = nl.new_bus(4);
  nl.bind_input("a", a);
  NetlistSim sim(nl);
  EXPECT_THROW(sim.set_input("a", BitVec(5, 0)), Error);
}

TEST(NetlistSimTest, LaneApiCarriesIndependentVectors) {
  Netlist nl;
  const Bus a = nl.new_bus(4);
  const Bus b = nl.new_bus(4);
  Bus y(4);
  for (int i = 0; i < 4; ++i) {
    y[static_cast<std::size_t>(i)] = nl.new_net();
    nl.add_cell(CellType::kXor2, "x" + std::to_string(i),
                {a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)]},
                {y[static_cast<std::size_t>(i)]});
  }
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  nl.bind_output("y", y);

  NetlistSim sim(nl);
  std::vector<std::uint64_t> as, bs;
  for (std::uint64_t l = 0; l < 64; ++l) {
    as.push_back(l & 0xF);
    bs.push_back((l * 7) & 0xF);
  }
  sim.set_input_lanes("a", as);
  sim.set_input_lanes("b", bs);
  sim.set_active_lanes(64);
  sim.eval();
  for (int l = 0; l < 64; ++l) {
    EXPECT_EQ(sim.get_u64_lane("y", l),
              as[static_cast<std::size_t>(l)] ^ bs[static_cast<std::size_t>(l)]);
  }
  // Lane 0 is what the scalar getters observe.
  EXPECT_EQ(sim.get_u64("y"), as[0] ^ bs[0]);
}

TEST(NetlistSimTest, LaneApiValidation) {
  Netlist nl;
  const Bus a = nl.new_bus(2);
  nl.bind_input("a", a);
  NetlistSim tape(nl);
  const std::uint64_t v[2] = {1, 2};
  EXPECT_THROW(tape.set_input_lanes("a", v, 0), Error);
  EXPECT_THROW(tape.set_input_lanes("a", v, 65), Error);
  EXPECT_THROW(tape.set_active_lanes(0), Error);
  EXPECT_THROW(tape.get_u64_lane("a", 64), Error);

  NetlistSim ref(nl, SimEngine::kReferenceFullOrder);
  EXPECT_THROW(ref.set_input_lanes("a", v, 2), Error);
  EXPECT_THROW(ref.set_active_lanes(2), Error);
  EXPECT_NO_THROW(ref.set_active_lanes(1));
}

TEST(NetlistSimTest, SharedCompilationAcrossSimulators) {
  Netlist nl;
  const Bus a = nl.new_bus(1);
  const Bus y = nl.new_bus(1);
  nl.bind_input("a", a);
  nl.bind_output("y", y);
  nl.add_cell(CellType::kInv, "i", {a[0]}, {y[0]});
  const CompiledNetlist cn(nl);
  NetlistSim s1(cn);
  NetlistSim s2(cn, SimEngine::kReferenceFullOrder);
  s1.set_input_u64("a", 1);
  s2.set_input_u64("a", 1);
  s1.eval();
  s2.eval();
  EXPECT_EQ(s1.get_u64("y"), 0u);
  EXPECT_EQ(s2.get_u64("y"), 0u);
}

TEST(CompiledNetlistTest, LevelizesAndIndexesStructure) {
  Netlist nl;
  const Bus a = nl.new_bus(2);
  nl.bind_input("a", a);
  const NetId m = nl.new_net();
  const NetId y = nl.new_net();
  const NetId q = nl.new_net();
  const int g0 = nl.add_cell(CellType::kAnd2, "g0", {a[0], a[1]}, {m});
  const int g1 = nl.add_cell(CellType::kInv, "g1", {m}, {y});
  const int ff = nl.add_cell(CellType::kDff, "ff", {y}, {q});

  const CompiledNetlist cn(nl);
  EXPECT_EQ(cn.num_cells(), 3);
  EXPECT_EQ(cn.level_of(g0), 1);
  EXPECT_EQ(cn.level_of(g1), 2);
  EXPECT_EQ(cn.level_of(ff), -1);  // sequential, not in the schedule
  EXPECT_EQ(cn.num_levels(), 3);   // levels 0..2 (0 reserved for TIEs)
  ASSERT_EQ(cn.dff_cells().size(), 1u);
  EXPECT_EQ(cn.dff_cells()[0], ff);
  EXPECT_EQ(cn.schedule().size(), 2u);
  EXPECT_EQ(cn.full_order().size(), 3u);
  // Gate tape: each run holds one cell type on one level, runs follow level
  // order, and every combinational cell appears exactly once.
  std::vector<int> seen(static_cast<std::size_t>(cn.num_cells()), 0);
  int prev_level = 0;
  for (const TapeRun& run : cn.tape()) {
    ASSERT_GT(run.size, 0);
    const int level = cn.level_of(cn.run_cells(run)[0]);
    EXPECT_GE(level, prev_level);
    prev_level = level;
    for (int i = 0; i < run.size; ++i) {
      const int ci = cn.run_cells(run)[i];
      EXPECT_EQ(cn.cell_type(ci), run.type);
      EXPECT_EQ(cn.level_of(ci), level);
      ++seen[static_cast<std::size_t>(ci)];
    }
  }
  EXPECT_EQ(seen, (std::vector<int>{1, 1, 0}));
  // A run's pins are its cells' inputs then outputs, back to back.
  ASSERT_EQ(cn.tape().size(), 2u);
  const NetId* g1_pins = cn.run_pins(cn.tape()[1]);
  EXPECT_EQ(g1_pins[0], m);
  EXPECT_EQ(g1_pins[1], y);
  // Flat pin tables mirror the cells.
  EXPECT_EQ(cn.num_cell_inputs(g0), 2);
  EXPECT_EQ(cn.cell_inputs(g0)[0], a[0]);
  EXPECT_EQ(cn.cell_outputs(g1)[0], y);
}

}  // namespace
}  // namespace af::hw
