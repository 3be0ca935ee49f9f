// Property test: the STA engine's single-pass longest-path computation
// against brute-force path enumeration on random combinational DAGs.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "hw/netlist.h"
#include "hw/sta.h"
#include "util/rng.h"

namespace af::hw {
namespace {

// Build a random layered combinational netlist over 2-input gates and
// return it; every net is reachable from the inputs.
Netlist random_dag(Rng& rng, int inputs, int gates) {
  Netlist nl;
  std::vector<NetId> pool;
  Bus in = nl.new_bus(inputs);
  nl.bind_input("in", in);
  for (const NetId n : in) pool.push_back(n);

  static constexpr CellType kGateTypes[] = {
      CellType::kNand2, CellType::kNor2, CellType::kAnd2,
      CellType::kOr2,   CellType::kXor2, CellType::kXnor2,
  };
  Bus out;
  for (int g = 0; g < gates; ++g) {
    const CellType type =
        kGateTypes[rng.next_below(std::size(kGateTypes))];
    const NetId a = pool[rng.next_below(pool.size())];
    const NetId b = pool[rng.next_below(pool.size())];
    const NetId y = nl.new_net();
    nl.add_cell(type, "g" + std::to_string(g), {a, b}, {y});
    pool.push_back(y);
    out.push_back(y);
  }
  nl.bind_output("out", out);
  return nl;
}

// Exhaustive longest path by memoized DFS over the driver graph.
double brute_force_max_delay(const Netlist& nl, const Technology& tech) {
  std::vector<int> driver(static_cast<std::size_t>(nl.num_nets()), kNoCell);
  for (int ci = 0; ci < nl.num_cells(); ++ci) {
    for (const NetId n : nl.cell(ci).outputs) {
      driver[static_cast<std::size_t>(n)] = ci;
    }
  }
  std::vector<double> memo(static_cast<std::size_t>(nl.num_nets()), -1.0);
  std::function<double(NetId)> arrival = [&](NetId n) -> double {
    if (memo[static_cast<std::size_t>(n)] >= 0.0) {
      return memo[static_cast<std::size_t>(n)];
    }
    const int ci = driver[static_cast<std::size_t>(n)];
    double t = 0.0;  // primary input
    if (ci != kNoCell) {
      const Cell& cell = nl.cell(ci);
      double worst = 0.0;
      for (const NetId in : cell.inputs) {
        worst = std::max(worst, arrival(in));
      }
      t = worst + tech.scaled_delay_ps(cell.type, 0);
    }
    memo[static_cast<std::size_t>(n)] = t;
    return t;
  };
  double worst = 0.0;
  for (const auto& [name, bus] : nl.outputs()) {
    for (const NetId n : bus) worst = std::max(worst, arrival(n));
  }
  return worst;
}

class RandomDagSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagSweep, StaMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const int inputs = 2 + static_cast<int>(rng.next_below(6));
    const int gates = 5 + static_cast<int>(rng.next_below(60));
    const Netlist nl = random_dag(rng, inputs, gates);
    Technology tech;
    const double expect = brute_force_max_delay(nl, tech);
    const TimingReport report = Sta(nl, tech).run();
    EXPECT_NEAR(report.min_period_ps, expect, 1e-9)
        << "seed=" << GetParam() << " trial=" << trial << " gates=" << gates;
    // The reported critical path must be monotone in arrival time and end
    // at the reported delay.
    if (!report.critical_path.empty()) {
      double prev = 0.0;
      for (const auto& step : report.critical_path) {
        EXPECT_GE(step.arrival_ps, prev);
        prev = step.arrival_ps;
      }
      EXPECT_NEAR(report.critical_path.back().arrival_ps, expect, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagSweep, ::testing::Range(1, 9));

}  // namespace
}  // namespace af::hw
