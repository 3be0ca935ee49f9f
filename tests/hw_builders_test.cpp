// Datapath builders verified functionally against integer arithmetic via
// the netlist simulator: adders, CSA rows, muxes, the Wallace multiplier and
// the PE datapaths.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hw/builders/adders.h"
#include "hw/builders/csa.h"
#include "hw/builders/multiplier.h"
#include "hw/builders/mux.h"
#include "hw/builders/pe_datapath.h"
#include "hw/builders/registers.h"
#include "hw/netlist.h"
#include "hw/netlist_sim.h"
#include "util/rng.h"
#include "util/status.h"

namespace af::hw {
namespace {

std::uint64_t mask_for(int width) {
  return width >= 64 ? ~0ULL : ((1ULL << width) - 1);
}

// Drive a combinational netlist with a whole stimulus table in 64-lane
// chunks: `stimulus[bus]` holds one value per vector, and `check(v, get)` is
// called for every vector with a getter for any bus's value under vector v.
// One bit-parallel eval covers up to 64 vectors, so the exhaustive and
// property sweeps below cost ~64x fewer evals than the scalar loops they
// replace.
using StimulusTable =
    std::vector<std::pair<std::string, std::vector<std::uint64_t>>>;

template <typename Check>
void run_lanes(NetlistSim& sim, const StimulusTable& stimulus, Check check) {
  ASSERT_FALSE(stimulus.empty());
  const std::size_t total = stimulus.front().second.size();
  for (std::size_t base = 0; base < total; base += NetlistSim::kLanes) {
    const int n = static_cast<int>(
        std::min<std::size_t>(NetlistSim::kLanes, total - base));
    for (const auto& [bus, values] : stimulus) {
      ASSERT_EQ(values.size(), total);
      sim.set_input_lanes(bus, std::span(values).subspan(
                                   base, static_cast<std::size_t>(n)));
    }
    sim.eval();
    for (int l = 0; l < n; ++l) {
      check(base + static_cast<std::size_t>(l),
            [&sim, l](const std::string& bus) {
              return sim.get_u64_lane(bus, l);
            });
    }
  }
}

enum class AdderKind { kRipple, kKoggeStone };

struct AdderCase {
  AdderKind kind;
  int width;
};

class AdderProperty : public ::testing::TestWithParam<AdderCase> {};

TEST_P(AdderProperty, MatchesIntegerAddition) {
  const auto [kind, width] = GetParam();
  Netlist nl;
  const Bus a = nl.new_bus(width);
  const Bus b = nl.new_bus(width);
  const Bus cin = nl.new_bus(1);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  nl.bind_input("cin", cin);
  NetId cout = kNoNet;
  const Bus sum = kind == AdderKind::kRipple
                      ? build_ripple_adder(nl, a, b, cin[0], &cout)
                      : build_kogge_stone_adder(nl, a, b, cin[0], &cout);
  nl.bind_output("sum", sum);
  nl.bind_output("cout", Bus{cout});

  NetlistSim sim(nl);
  Rng rng(static_cast<std::uint64_t>(width) * 1299709 +
          (kind == AdderKind::kRipple ? 0 : 1));
  const std::uint64_t mask = mask_for(width);
  constexpr int kTrials = 60;
  StimulusTable stim{{"a", {}}, {"b", {}}, {"cin", {}}};
  for (int trial = 0; trial < kTrials; ++trial) {
    stim[0].second.push_back(rng.next_u64() & mask);
    stim[1].second.push_back(rng.next_u64() & mask);
    stim[2].second.push_back(rng.next_u64() & 1);
  }
  run_lanes(sim, stim, [&](std::size_t v, auto get) {
    const unsigned __int128 wide =
        static_cast<unsigned __int128>(stim[0].second[v]) +
        stim[1].second[v] + stim[2].second[v];
    EXPECT_EQ(get("sum"), static_cast<std::uint64_t>(wide) & mask);
    EXPECT_EQ(get("cout"), static_cast<std::uint64_t>(wide >> width) & 1);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdderProperty,
    ::testing::Values(AdderCase{AdderKind::kRipple, 1},
                      AdderCase{AdderKind::kRipple, 8},
                      AdderCase{AdderKind::kRipple, 33},
                      AdderCase{AdderKind::kRipple, 64},
                      AdderCase{AdderKind::kKoggeStone, 1},
                      AdderCase{AdderKind::kKoggeStone, 8},
                      AdderCase{AdderKind::kKoggeStone, 24},
                      AdderCase{AdderKind::kKoggeStone, 33},
                      AdderCase{AdderKind::kKoggeStone, 64}));

TEST(AdderTest, CornerValues) {
  Netlist nl;
  const Bus a = nl.new_bus(16);
  const Bus b = nl.new_bus(16);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  NetId cout = kNoNet;
  nl.bind_output("sum", build_kogge_stone_adder(nl, a, b, kNoNet, &cout));
  nl.bind_output("cout", Bus{cout});
  NetlistSim sim(nl);
  sim.set_input_u64("a", 0xFFFF);
  sim.set_input_u64("b", 1);
  sim.eval();
  EXPECT_EQ(sim.get_u64("sum"), 0u);
  EXPECT_EQ(sim.get_u64("cout"), 1u);
}

TEST(AdderTest, WidthMismatchRejected) {
  Netlist nl;
  const Bus a = nl.new_bus(8);
  const Bus b = nl.new_bus(4);
  EXPECT_THROW(build_ripple_adder(nl, a, b), Error);
  EXPECT_THROW(build_kogge_stone_adder(nl, a, b), Error);
}

class CsaProperty : public ::testing::TestWithParam<int> {};

TEST_P(CsaProperty, PreservesSumModuloWidth) {
  const int width = GetParam();
  Netlist nl;
  const Bus a = nl.new_bus(width);
  const Bus b = nl.new_bus(width);
  const Bus c = nl.new_bus(width);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  nl.bind_input("c", c);
  const CsaResult csa = build_csa_row(nl, a, b, c);
  // Resolve with a CPA to check sum + (carry << 1) == a + b + c (mod 2^w).
  const Bus resolved =
      build_kogge_stone_adder(nl, csa.sum, shift_left_one(nl, csa.carry));
  nl.bind_output("resolved", resolved);

  NetlistSim sim(nl);
  Rng rng(static_cast<std::uint64_t>(width) + 17);
  const std::uint64_t mask = mask_for(width);
  StimulusTable stim{{"a", {}}, {"b", {}}, {"c", {}}};
  for (int trial = 0; trial < 80; ++trial) {
    for (auto& [bus, values] : stim) values.push_back(rng.next_u64() & mask);
  }
  run_lanes(sim, stim, [&](std::size_t v, auto get) {
    EXPECT_EQ(get("resolved"),
              (stim[0].second[v] + stim[1].second[v] + stim[2].second[v]) &
                  mask);
  });
}

INSTANTIATE_TEST_SUITE_P(Widths, CsaProperty, ::testing::Values(4, 16, 33, 64));

TEST(CsaTest, OneFullAdderPerBit) {
  Netlist nl;
  const Bus a = nl.new_bus(64);
  const Bus b = nl.new_bus(64);
  const Bus c = nl.new_bus(64);
  build_csa_row(nl, a, b, c);
  EXPECT_EQ(nl.count_cells(CellType::kFullAdder), 64);
}

TEST(MuxTest, SelectsPerSelValue) {
  Netlist nl;
  const Bus a = nl.new_bus(8);
  const Bus b = nl.new_bus(8);
  const Bus sel = nl.new_bus(1);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  nl.bind_input("sel", sel);
  nl.bind_output("y", build_mux2_bus(nl, a, b, sel[0]));
  NetlistSim sim(nl);
  sim.set_input_u64("a", 0x5A);
  sim.set_input_u64("b", 0xC3);
  sim.set_input_u64("sel", 0);
  sim.eval();
  EXPECT_EQ(sim.get_u64("y"), 0x5Au);
  sim.set_input_u64("sel", 1);
  sim.eval();
  EXPECT_EQ(sim.get_u64("y"), 0xC3u);
}

TEST(RegisterTest, BankLatchesOnStep) {
  Netlist nl;
  const Bus d = nl.new_bus(8);
  nl.bind_input("d", d);
  nl.bind_output("q", build_register_bank(nl, d));
  NetlistSim sim(nl);
  sim.set_input_u64("d", 0xAB);
  sim.step();
  sim.eval();
  EXPECT_EQ(sim.get_u64("q"), 0xABu);
}

TEST(RegisterTest, GatedBankHasIcgCell) {
  Netlist nl;
  const Bus d = nl.new_bus(8);
  const NetId en = nl.new_net();
  nl.add_cell(CellType::kTie1, "en", {}, {en});
  build_gated_register_bank(nl, d, en);
  EXPECT_EQ(nl.count_cells(CellType::kClockGate), 1);
  EXPECT_EQ(nl.count_cells(CellType::kDff), 8);
}

struct MulCase {
  int wa;
  int wb;
};

class MultiplierProperty : public ::testing::TestWithParam<MulCase> {};

TEST_P(MultiplierProperty, MatchesIntegerMultiplication) {
  const auto [wa, wb] = GetParam();
  Netlist nl;
  const Bus a = nl.new_bus(wa);
  const Bus b = nl.new_bus(wb);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  const Bus p = build_wallace_multiplier(nl, a, b);
  EXPECT_EQ(static_cast<int>(p.size()), wa + wb);
  nl.bind_output("p", p);

  NetlistSim sim(nl);
  Rng rng(static_cast<std::uint64_t>(wa) * 131 + wb);
  StimulusTable stim{{"a", {}}, {"b", {}}};
  for (int trial = 0; trial < 50; ++trial) {
    stim[0].second.push_back(rng.next_u64() & mask_for(wa));
    stim[1].second.push_back(rng.next_u64() & mask_for(wb));
  }
  run_lanes(sim, stim, [&](std::size_t v, auto get) {
    const unsigned __int128 expect =
        static_cast<unsigned __int128>(stim[0].second[v]) * stim[1].second[v];
    EXPECT_EQ(get("p"), static_cast<std::uint64_t>(expect) &
                            mask_for(std::min(wa + wb, 64)));
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, MultiplierProperty,
                         ::testing::Values(MulCase{1, 1}, MulCase{4, 4},
                                           MulCase{8, 8}, MulCase{7, 5},
                                           MulCase{16, 16}, MulCase{32, 32}));

class BoothMultiplierProperty : public ::testing::TestWithParam<MulCase> {};

TEST_P(BoothMultiplierProperty, MatchesIntegerMultiplication) {
  const auto [wa, wb] = GetParam();
  Netlist nl;
  const Bus a = nl.new_bus(wa);
  const Bus b = nl.new_bus(wb);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  const Bus p = build_booth_multiplier(nl, a, b);
  EXPECT_EQ(static_cast<int>(p.size()), wa + wb);
  nl.bind_output("p", p);

  NetlistSim sim(nl);
  Rng rng(static_cast<std::uint64_t>(wa) * 977 + wb);
  StimulusTable stim{{"a", {}}, {"b", {}}};
  for (int trial = 0; trial < 50; ++trial) {
    stim[0].second.push_back(rng.next_u64() & mask_for(wa));
    stim[1].second.push_back(rng.next_u64() & mask_for(wb));
  }
  run_lanes(sim, stim, [&](std::size_t v, auto get) {
    const unsigned __int128 expect =
        static_cast<unsigned __int128>(stim[0].second[v]) * stim[1].second[v];
    EXPECT_EQ(get("p"), static_cast<std::uint64_t>(expect) &
                            mask_for(std::min(wa + wb, 64)))
        << stim[0].second[v] << " * " << stim[1].second[v];
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, BoothMultiplierProperty,
                         ::testing::Values(MulCase{1, 1}, MulCase{4, 4},
                                           MulCase{8, 8}, MulCase{7, 5},
                                           MulCase{5, 7}, MulCase{16, 16},
                                           MulCase{32, 32}, MulCase{32, 31}));

TEST(BoothMultiplierTest, ExhaustiveFiveByFive) {
  Netlist nl;
  const Bus a = nl.new_bus(5);
  const Bus b = nl.new_bus(5);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  nl.bind_output("p", build_booth_multiplier(nl, a, b));
  NetlistSim sim(nl);
  StimulusTable stim{{"a", {}}, {"b", {}}};
  for (std::uint64_t x = 0; x < 32; ++x) {
    for (std::uint64_t y = 0; y < 32; ++y) {
      stim[0].second.push_back(x);
      stim[1].second.push_back(y);
    }
  }
  run_lanes(sim, stim, [&](std::size_t v, auto get) {
    ASSERT_EQ(get("p"), stim[0].second[v] * stim[1].second[v])
        << stim[0].second[v] << " * " << stim[1].second[v];
  });
}

TEST(BoothMultiplierTest, HalvesPartialProductRows) {
  // The point of Booth recoding: ~wb/2 partial-product rows instead of wb,
  // so clearly fewer full adders in the reduction tree.
  Netlist wallace, booth;
  {
    const Bus a = wallace.new_bus(32);
    const Bus b = wallace.new_bus(32);
    build_wallace_multiplier(wallace, a, b);
  }
  {
    const Bus a = booth.new_bus(32);
    const Bus b = booth.new_bus(32);
    build_booth_multiplier(booth, a, b);
  }
  EXPECT_LT(booth.count_cells(CellType::kFullAdder),
            wallace.count_cells(CellType::kFullAdder) * 6 / 10);
}

TEST(MultiplierTest, StyleDispatch) {
  Netlist nl;
  const Bus a = nl.new_bus(8);
  const Bus b = nl.new_bus(8);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  nl.bind_output("p", build_multiplier(nl, a, b, MultiplierStyle::kBooth));
  NetlistSim sim(nl);
  sim.set_input_u64("a", 200);
  sim.set_input_u64("b", 150);
  sim.eval();
  EXPECT_EQ(sim.get_u64("p"), 200u * 150u);
}

TEST(PeDatapathTest, BoothPeComputesMac) {
  Netlist nl;
  PeDatapathOptions opt{8, 16};
  opt.multiplier = MultiplierStyle::kBooth;
  build_conventional_pe(nl, opt);
  NetlistSim sim(nl);
  sim.set_input_u64("a_in", 11);
  sim.set_input_u64("w_in", 13);
  sim.set_input_u64("psum_in", 0);
  sim.step();
  sim.set_input_u64("psum_in", 1000);
  sim.step();
  sim.eval();
  EXPECT_EQ(sim.get_u64("psum_out"), 11u * 13u + 1000u);
}

TEST(PeDatapathTest, RippleCpaPeComputesMac) {
  Netlist nl;
  PeDatapathOptions opt{8, 16};
  opt.cpa = CpaStyle::kRipple;
  build_collapsed_column(nl, 2, /*use_csa=*/false, opt);
  NetlistSim sim(nl);
  sim.set_input_u64("w_in0", 9);
  sim.set_input_u64("w_in1", 5);
  sim.set_input_u64("a_in0", 0);
  sim.set_input_u64("a_in1", 0);
  sim.set_input_u64("s_in", 0);
  sim.set_input_u64("c_in", 0);
  sim.step();
  sim.set_input_u64("a_in0", 3);
  sim.set_input_u64("a_in1", 4);
  sim.step();
  sim.eval();
  EXPECT_EQ(sim.get_u64("psum_out"), 3u * 9u + 4u * 5u);
}

TEST(MultiplierTest, ExhaustiveFourByFour) {
  Netlist nl;
  const Bus a = nl.new_bus(4);
  const Bus b = nl.new_bus(4);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  nl.bind_output("p", build_wallace_multiplier(nl, a, b));
  NetlistSim sim(nl);
  StimulusTable stim{{"a", {}}, {"b", {}}};
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      stim[0].second.push_back(x);
      stim[1].second.push_back(y);
    }
  }
  run_lanes(sim, stim, [&](std::size_t v, auto get) {
    EXPECT_EQ(get("p"), stim[0].second[v] * stim[1].second[v])
        << stim[0].second[v] << " * " << stim[1].second[v];
  });
}

// ------------------------------------------------------ PE datapath checks

TEST(PeDatapathTest, ConventionalPeComputesMac) {
  Netlist nl;
  build_conventional_pe(nl, {8, 16});
  NetlistSim sim(nl);
  // Load a and w into their input registers, then clock the MAC through.
  sim.set_input_u64("a_in", 11);
  sim.set_input_u64("w_in", 13);
  sim.set_input_u64("psum_in", 0);
  sim.step();  // a_reg/w_reg <- inputs
  sim.set_input_u64("psum_in", 1000);
  sim.step();  // psum_reg <- 11*13 + 1000
  sim.eval();
  EXPECT_EQ(sim.get_u64("psum_out"), 11u * 13u + 1000u);
}

TEST(PeDatapathTest, ArrayFlexPeNormalModeMatchesConventional) {
  Netlist nl;
  build_arrayflex_pe(nl, {8, 16});
  NetlistSim sim(nl);
  sim.set_input_u64("cfg_h", 0);  // opaque registers = normal pipeline
  sim.set_input_u64("cfg_v", 0);
  sim.set_input_u64("a_in", 11);
  sim.set_input_u64("w_in", 13);
  sim.set_input_u64("s_in", 0);
  sim.set_input_u64("c_in", 0);
  sim.step();  // cfg + operand registers load
  sim.set_input_u64("s_in", 1000);
  sim.step();  // psum_reg <- 11*13 + 1000
  sim.eval();
  EXPECT_EQ(sim.get_u64("psum_out"), 11u * 13u + 1000u);
  // In normal mode the vertical outputs present the registered result with a
  // zero carry word.
  EXPECT_EQ(sim.get_u64("s_out"), 11u * 13u + 1000u);
  EXPECT_EQ(sim.get_u64("c_out"), 0u);
}

TEST(PeDatapathTest, ArrayFlexPeShallowModeIsTransparent) {
  Netlist nl;
  build_arrayflex_pe(nl, {8, 16});
  NetlistSim sim(nl);
  sim.set_input_u64("cfg_h", 1);  // transparent in both directions
  sim.set_input_u64("cfg_v", 1);
  sim.set_input_u64("a_in", 0);
  sim.set_input_u64("w_in", 13);
  sim.set_input_u64("s_in", 0);
  sim.set_input_u64("c_in", 0);
  sim.step();  // latch cfg and weight
  // Now drive the activation combinationally: with cfg_h transparent the
  // multiplier must see a_in without waiting for a clock edge.
  sim.set_input_u64("a_in", 7);
  sim.set_input_u64("s_in", 100);
  sim.set_input_u64("c_in", 40);
  sim.eval();
  const std::uint64_t s = sim.get_u64("s_out");
  const std::uint64_t c = sim.get_u64("c_out");
  EXPECT_EQ((s + c) & 0xFFFFu, (7u * 13u + 100u + 40u) & 0xFFFFu)
      << "carry-save pair must encode product + s_in + c_in";
}

TEST(PeDatapathTest, CollapsedColumnSumsKProducts) {
  // k = 2 collapsed column: psum_out = a0*w0 + a1*w1 after the boundary
  // register latches.
  Netlist nl;
  build_collapsed_column(nl, 2, /*use_csa=*/true, {8, 16});
  NetlistSim sim(nl);
  sim.set_input_u64("w_in0", 9);
  sim.set_input_u64("w_in1", 5);
  sim.set_input_u64("a_in0", 0);
  sim.set_input_u64("a_in1", 0);
  sim.set_input_u64("s_in", 0);
  sim.set_input_u64("c_in", 0);
  sim.step();  // weights + cfg constants latch
  sim.set_input_u64("a_in0", 3);
  sim.set_input_u64("a_in1", 4);
  sim.step();  // boundary register captures the transparent reduction
  sim.eval();
  EXPECT_EQ(sim.get_u64("psum_out"), 3u * 9u + 4u * 5u);
}

TEST(PeDatapathTest, NaiveCollapsedColumnAlsoComputes) {
  Netlist nl;
  build_collapsed_column(nl, 2, /*use_csa=*/false, {8, 16});
  NetlistSim sim(nl);
  sim.set_input_u64("w_in0", 9);
  sim.set_input_u64("w_in1", 5);
  sim.set_input_u64("a_in0", 0);
  sim.set_input_u64("a_in1", 0);
  sim.set_input_u64("s_in", 0);
  sim.set_input_u64("c_in", 0);
  sim.step();
  sim.set_input_u64("a_in0", 3);
  sim.set_input_u64("a_in1", 4);
  sim.step();
  sim.eval();
  EXPECT_EQ(sim.get_u64("psum_out"), 3u * 9u + 4u * 5u);
}

TEST(PeDatapathTest, FalsePathListShape) {
  EXPECT_TRUE(collapsed_column_false_paths(1).empty());
  const auto fp = collapsed_column_false_paths(4);
  EXPECT_EQ(fp.size(), 6u);  // (cpa + psumreg) x 3 transparent PEs
  // The naive design keeps its CPAs in the timed datapath.
  const auto fp_naive = collapsed_column_false_paths(4, /*use_csa=*/false);
  EXPECT_EQ(fp_naive.size(), 3u);
  for (const auto& p : fp_naive) {
    EXPECT_NE(p.find("psumreg"), std::string::npos);
  }
}

TEST(PeDatapathTest, ArrayFlexHasMoreCellsThanConventional) {
  Netlist conv, af;
  build_conventional_pe(conv, {32, 64});
  build_arrayflex_pe(af, {32, 64});
  EXPECT_GT(af.num_cells(), conv.num_cells());
  // ArrayFlex adds exactly one 64-bit CSA row beyond the multiplier FAs.
  EXPECT_EQ(af.count_cells(CellType::kFullAdder),
            conv.count_cells(CellType::kFullAdder) + 64);
  EXPECT_GT(af.count_cells(CellType::kMux2), 0);
  EXPECT_EQ(conv.count_cells(CellType::kMux2), 0);
}

}  // namespace
}  // namespace af::hw
