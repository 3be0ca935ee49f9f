// Engine-equivalence contract for the gate-level simulator: the 64-lane
// gate-tape engine must match the reference full-order scalar eval on every
// net value and every per-cell toggle count, over randomized netlists (DFF
// feedback included), randomized eval/step interleavings, partial lane
// sets, and the real datapath builders, including the PE netlists that
// characterize_energy prices; and the tape's two kernels (POPCNT and
// portable) must match each other on those PE netlists.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "hw/builders/multiplier.h"
#include "hw/builders/pe_datapath.h"
#include "hw/compiled_netlist.h"
#include "hw/netlist.h"
#include "hw/netlist_sim.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/strings.h"

namespace af::hw {
namespace {

constexpr int kLanes = NetlistSim::kLanes;

// Random connected netlist: primary inputs, DFFs (with feedback: D nets are
// driven by combinational logic that may consume Q nets), and a soup of
// random combinational cells whose inputs draw from already-driven nets.
struct RandomDesign {
  Netlist nl;
  int input_bits = 0;
  std::vector<int> dff_cells;
};

RandomDesign make_random_design(Rng& rng, int input_bits, int num_dffs,
                                int num_comb) {
  RandomDesign d;
  d.input_bits = input_bits;
  Netlist& nl = d.nl;
  const Bus in = nl.new_bus(input_bits);
  nl.bind_input("in", in);

  std::vector<NetId> pool(in.begin(), in.end());
  pool.push_back(nl.const0());
  pool.push_back(nl.const1());

  // DFFs first: D nets get drivers later, Q nets join the pool immediately,
  // so downstream logic can close registered feedback loops.
  std::vector<NetId> dff_d(static_cast<std::size_t>(num_dffs));
  for (int i = 0; i < num_dffs; ++i) {
    const NetId dnet = nl.new_net();
    const NetId q = nl.new_net();
    d.dff_cells.push_back(
        nl.add_cell(CellType::kDff, format("ff%d", i), {dnet}, {q}));
    dff_d[static_cast<std::size_t>(i)] = dnet;
    pool.push_back(q);
  }

  const CellType comb_types[] = {
      CellType::kInv,  CellType::kBuf,   CellType::kNand2, CellType::kNor2,
      CellType::kAnd2, CellType::kOr2,   CellType::kXor2,  CellType::kXnor2,
      CellType::kAoi21, CellType::kOai21, CellType::kMux2,
      CellType::kHalfAdder, CellType::kFullAdder};
  EXPECT_GE(num_comb, num_dffs);
  for (int j = 0; j < num_comb; ++j) {
    const CellType type =
        comb_types[rng.next_below(sizeof(comb_types) / sizeof(comb_types[0]))];
    const CellInfo& info = cell_info(type);
    std::vector<NetId> inputs;
    for (int i = 0; i < info.num_inputs; ++i) {
      inputs.push_back(pool[rng.next_below(pool.size())]);
    }
    std::vector<NetId> outputs;
    for (int o = 0; o < info.num_outputs; ++o) {
      // The first num_dffs cells drive the DFF D nets (on their first
      // output); everything else drives fresh nets.
      const NetId out = (o == 0 && j < num_dffs)
                            ? dff_d[static_cast<std::size_t>(j)]
                            : nl.new_net();
      outputs.push_back(out);
    }
    nl.add_cell(type, format("g%d", j), std::move(inputs), outputs);
    for (const NetId out : outputs) pool.push_back(out);
  }

  // Observable outputs: a random sample of driven nets.
  Bus out_bus;
  for (int i = 0; i < 8 && i < static_cast<int>(pool.size()); ++i) {
    out_bus.push_back(pool[rng.next_below(pool.size())]);
  }
  nl.bind_output("out", out_bus);
  return d;
}

void expect_same_state(const NetlistSim& ref, const NetlistSim& tape,
                       int num_nets, const char* when) {
  for (NetId n = 0; n < num_nets; ++n) {
    ASSERT_EQ(ref.net_value(n), tape.net_value(n))
        << "net " << n << " diverged " << when;
  }
  ASSERT_EQ(ref.toggles(), tape.toggles()) << "toggle counts diverged " << when;
}

TEST(SimEquivalenceTest, RandomNetlistsScalar) {
  Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const int input_bits = 2 + static_cast<int>(rng.next_below(14));
    const int num_dffs = static_cast<int>(rng.next_below(12));
    const int num_comb =
        num_dffs + 20 + static_cast<int>(rng.next_below(120));
    RandomDesign d = make_random_design(rng, input_bits, num_dffs, num_comb);

    const CompiledNetlist cn(d.nl);
    NetlistSim ref(cn, SimEngine::kReferenceFullOrder);
    NetlistSim tape(cn, SimEngine::kLevelizedTape);
    const std::uint64_t mask =
        input_bits >= 64 ? ~0ULL : ((1ULL << input_bits) - 1);

    for (int op = 0; op < 50; ++op) {
      // Occasionally leave the input unchanged to exercise quiet evals, and
      // occasionally force a DFF state directly.
      if (rng.next_below(10) != 0) {
        const std::uint64_t v = rng.next_u64() & mask;
        ref.set_input_u64("in", v);
        tape.set_input_u64("in", v);
      }
      if (num_dffs > 0 && rng.next_below(8) == 0) {
        const int ci = d.dff_cells[rng.next_below(d.dff_cells.size())];
        const bool v = rng.next_below(2) != 0;
        ref.set_dff_state(ci, v);
        tape.set_dff_state(ci, v);
      }
      if (rng.next_below(3) == 0) {
        ref.eval();
        tape.eval();
      } else {
        ref.step();
        tape.step();
      }
      expect_same_state(ref, tape, cn.num_nets(),
                        format("trial %d op %d", trial, op).c_str());
    }
    ASSERT_EQ(ref.total_toggles(), tape.total_toggles());
  }
}

TEST(SimEquivalenceTest, RandomNetlists64Lane) {
  // n supplied lanes and n active lanes: the tape must match n scalar
  // reference sims, and lanes n..63, which repeat lane n-1's stimulus, must
  // track lane n-1 on every net.
  Rng rng(77);
  for (const int n : {1, 7, 63, 64}) {
    for (int trial = 0; trial < 3; ++trial) {
      const int input_bits = 4 + static_cast<int>(rng.next_below(10));
      const int num_dffs = 2 + static_cast<int>(rng.next_below(10));
      const int num_comb =
          num_dffs + 30 + static_cast<int>(rng.next_below(80));
      RandomDesign d = make_random_design(rng, input_bits, num_dffs, num_comb);

      const CompiledNetlist cn(d.nl);
      // n scalar reference simulators, one per lane, each fed its own
      // stimulus stream...
      std::vector<std::unique_ptr<NetlistSim>> refs;
      for (int l = 0; l < n; ++l) {
        refs.push_back(
            std::make_unique<NetlistSim>(cn, SimEngine::kReferenceFullOrder));
      }
      // ...against ONE bit-parallel simulator carrying all n streams.
      NetlistSim tape(cn, SimEngine::kLevelizedTape);
      tape.set_active_lanes(n);
      const std::uint64_t mask =
          input_bits >= 64 ? ~0ULL : ((1ULL << input_bits) - 1);

      std::vector<std::uint64_t> lane_vals(static_cast<std::size_t>(n));
      for (int op = 0; op < 30; ++op) {
        for (auto& v : lane_vals) v = rng.next_u64() & mask;
        for (int l = 0; l < n; ++l) {
          refs[static_cast<std::size_t>(l)]->set_input_u64(
              "in", lane_vals[static_cast<std::size_t>(l)]);
        }
        tape.set_input_lanes("in", lane_vals);
        const bool do_step = rng.next_below(2) == 0;
        for (auto& ref : refs) {
          if (do_step) {
            ref->step();
          } else {
            ref->eval();
          }
        }
        if (do_step) {
          tape.step();
        } else {
          tape.eval();
        }
        for (NetId net = 0; net < cn.num_nets(); ++net) {
          for (int l = 0; l < n; ++l) {
            ASSERT_EQ(refs[static_cast<std::size_t>(l)]->net_value(net),
                      tape.net_value_lane(net, l))
                << "n " << n << " trial " << trial << " op " << op
                << " lane " << l << " net " << net;
          }
          for (int l = n; l < kLanes; ++l) {
            ASSERT_EQ(tape.net_value_lane(net, n - 1),
                      tape.net_value_lane(net, l))
                << "n " << n << " trial " << trial << " op " << op
                << " inactive lane " << l << " net " << net;
          }
        }
      }
      // Per-cell toggles of the wide engine == sum over lanes of the scalar
      // reference toggles.
      for (int ci = 0; ci < cn.num_cells(); ++ci) {
        std::uint64_t want = 0;
        for (const auto& ref : refs) {
          want += ref->toggles()[static_cast<std::size_t>(ci)];
        }
        ASSERT_EQ(want, tape.toggles()[static_cast<std::size_t>(ci)])
            << "n " << n << " trial " << trial << " cell " << ci
            << " toggles";
      }
    }
  }
}

TEST(SimEquivalenceTest, CharacterizedPeNetlists64Lane) {
  // The six PE variants characterize_energy prices for design_sweep, driven
  // through its stimulus sequence: cfg + weights latch, one warm-up step,
  // streamed activations and partial sums, then a final eval.
  Rng rng(21);
  for (const int bits : {8, 16, 32}) {
    for (const MultiplierStyle style :
         {MultiplierStyle::kBooth, MultiplierStyle::kWallace}) {
      Netlist nl;
      PeDatapathOptions opt{bits, 64};
      opt.multiplier = style;
      build_arrayflex_pe(nl, opt);
      const CompiledNetlist cn(nl);
      std::vector<std::unique_ptr<NetlistSim>> refs;
      for (int l = 0; l < kLanes; ++l) {
        refs.push_back(
            std::make_unique<NetlistSim>(cn, SimEngine::kReferenceFullOrder));
      }
      NetlistSim tape(cn, SimEngine::kLevelizedTape);
      tape.set_active_lanes(kLanes);

      const std::uint64_t in_mask = mask_low_bits(bits);
      const std::uint64_t psum_mask = mask_low_bits(std::min(64, 2 * bits + 4));
      std::vector<std::uint64_t> lane_vals(kLanes);
      const auto drive_lanes = [&](const char* bus, std::uint64_t mask) {
        for (auto& v : lane_vals) v = rng.next_u64() & mask;
        for (int l = 0; l < kLanes; ++l) {
          refs[static_cast<std::size_t>(l)]->set_input_u64(
              bus, lane_vals[static_cast<std::size_t>(l)]);
        }
        tape.set_input_lanes(bus, lane_vals);
      };
      const auto drive_all = [&](const char* bus, std::uint64_t value) {
        for (auto& ref : refs) ref->set_input_u64(bus, value);
        tape.set_input_u64(bus, value);
      };
      const auto step_all = [&] {
        for (auto& ref : refs) ref->step();
        tape.step();
      };

      drive_all("cfg_h", 0);
      drive_all("cfg_v", 0);
      drive_lanes("w_in", in_mask);
      drive_lanes("a_in", in_mask);
      drive_lanes("s_in", psum_mask);
      drive_all("c_in", 0);
      step_all();  // cfg + weights latch
      step_all();  // warm-up
      for (int cycle = 0; cycle < 4; ++cycle) {
        drive_lanes("a_in", in_mask);
        drive_lanes("s_in", psum_mask);
        step_all();
      }
      for (auto& ref : refs) ref->eval();
      tape.eval();

      for (int l = 0; l < kLanes; ++l) {
        ASSERT_EQ(refs[static_cast<std::size_t>(l)]->get_u64("psum_out"),
                  tape.get_u64_lane("psum_out", l))
            << bits << "-bit style " << static_cast<int>(style) << " lane "
            << l;
      }
      for (int ci = 0; ci < cn.num_cells(); ++ci) {
        std::uint64_t want = 0;
        for (const auto& ref : refs) {
          want += ref->toggles()[static_cast<std::size_t>(ci)];
        }
        ASSERT_EQ(want, tape.toggles()[static_cast<std::size_t>(ci)])
            << bits << "-bit style " << static_cast<int>(style) << " cell "
            << ci << " (" << nl.cell(ci).name << ") toggles";
      }
      EXPECT_GT(tape.total_toggles(), 0u);
    }
  }
}

TEST(SimEquivalenceTest, BothTapeKernelsAgreeOnCharacterizedPeNetlists) {
  // The tape runs the POPCNT kernel where the CPU has it, so the tests
  // above may never run the portable one.  Drive the six PE variants
  // through both, with characterize_energy's stimulus sequence: every net
  // value and every per-cell toggle count must agree.
  Rng rng(26);
  for (const int bits : {8, 16, 32}) {
    for (const MultiplierStyle style :
         {MultiplierStyle::kBooth, MultiplierStyle::kWallace}) {
      Netlist nl;
      PeDatapathOptions opt{bits, 64};
      opt.multiplier = style;
      build_arrayflex_pe(nl, opt);
      const CompiledNetlist cn(nl);
      NetlistSim picked(cn);
      NetlistSim portable(cn);
      detail::use_portable_tape(portable);
      for (NetlistSim* sim : {&picked, &portable}) {
        sim->set_active_lanes(kLanes);
      }

      const std::uint64_t in_mask = mask_low_bits(bits);
      const std::uint64_t psum_mask = mask_low_bits(std::min(64, 2 * bits + 4));
      std::vector<std::uint64_t> lane_vals(kLanes);
      const auto drive_lanes = [&](const char* bus, std::uint64_t mask) {
        for (auto& v : lane_vals) v = rng.next_u64() & mask;
        picked.set_input_lanes(bus, lane_vals);
        portable.set_input_lanes(bus, lane_vals);
      };
      const auto drive_all = [&](const char* bus, std::uint64_t value) {
        picked.set_input_u64(bus, value);
        portable.set_input_u64(bus, value);
      };
      const auto step_both = [&] {
        picked.step();
        portable.step();
      };
      const auto expect_same = [&](const char* when) {
        const std::string where = format("%d-bit style %d %s", bits,
                                         static_cast<int>(style), when);
        for (NetId n = 0; n < cn.num_nets(); ++n) {
          for (const int lane : {0, 31, 63}) {
            ASSERT_EQ(picked.net_value_lane(n, lane),
                      portable.net_value_lane(n, lane))
                << where << " net " << n << " lane " << lane;
          }
        }
        ASSERT_EQ(picked.toggles(), portable.toggles()) << where;
      };

      drive_all("cfg_h", 0);
      drive_all("cfg_v", 0);
      drive_lanes("w_in", in_mask);
      drive_lanes("a_in", in_mask);
      drive_lanes("s_in", psum_mask);
      drive_all("c_in", 0);
      step_both();  // cfg + weights latch
      step_both();  // warm-up
      for (int cycle = 0; cycle < 32; ++cycle) {
        drive_lanes("a_in", in_mask);
        drive_lanes("s_in", psum_mask);
        step_both();
        expect_same("after a cycle");
      }
      picked.eval();
      portable.eval();
      expect_same("after the final eval");
      EXPECT_GT(portable.total_toggles(), 0u);
    }
  }
}

TEST(SimEquivalenceTest, WallaceMultiplierAllEnginesAgree) {
  Netlist nl;
  const Bus a = nl.new_bus(8);
  const Bus b = nl.new_bus(8);
  nl.bind_input("a", a);
  nl.bind_input("b", b);
  nl.bind_output("p", build_wallace_multiplier(nl, a, b));
  const CompiledNetlist cn(nl);
  NetlistSim ref(cn, SimEngine::kReferenceFullOrder);
  NetlistSim tape(cn, SimEngine::kLevelizedTape);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t x = rng.next_u64() & 0xFF;
    const std::uint64_t y = rng.next_u64() & 0xFF;
    ref.set_input_u64("a", x);
    ref.set_input_u64("b", y);
    tape.set_input_u64("a", x);
    tape.set_input_u64("b", y);
    ref.eval();
    tape.eval();
    ASSERT_EQ(ref.get_u64("p"), x * y);
    ASSERT_EQ(tape.get_u64("p"), x * y);
  }
  EXPECT_EQ(ref.toggles(), tape.toggles());
}

TEST(SimEquivalenceTest, DffHeavyCollapsedColumnViaStep) {
  Netlist nl;
  build_collapsed_column(nl, /*k=*/3, /*use_csa=*/true, {8, 16});
  const CompiledNetlist cn(nl);
  NetlistSim ref(cn, SimEngine::kReferenceFullOrder);
  NetlistSim tape(cn, SimEngine::kLevelizedTape);
  Rng rng(9);
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t w = rng.next_u64() & 0xFF;
    ref.set_input_u64(format("w_in%d", i), w);
    tape.set_input_u64(format("w_in%d", i), w);
    ref.set_input_u64(format("a_in%d", i), 0);
    tape.set_input_u64(format("a_in%d", i), 0);
  }
  for (const char* bus : {"s_in", "c_in"}) {
    ref.set_input_u64(bus, 0);
    tape.set_input_u64(bus, 0);
  }
  ref.step();
  tape.step();
  for (int cycle = 0; cycle < 40; ++cycle) {
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t av = rng.next_u64() & 0xFF;
      ref.set_input_u64(format("a_in%d", i), av);
      tape.set_input_u64(format("a_in%d", i), av);
    }
    ref.step();
    tape.step();
    ASSERT_EQ(ref.get_u64("psum_out"), tape.get_u64("psum_out"))
        << "cycle " << cycle;
    ASSERT_EQ(ref.toggles(), tape.toggles()) << "cycle " << cycle;
  }
  EXPECT_GT(tape.total_toggles(), 0u);
}

}  // namespace
}  // namespace af::hw
