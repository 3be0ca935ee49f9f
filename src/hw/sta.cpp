#include "hw/sta.h"

#include <algorithm>

#include "util/status.h"
#include "util/strings.h"

namespace af::hw {
namespace {

constexpr double kMinusInf = -std::numeric_limits<double>::infinity();

}  // namespace

Sta::Sta(const Netlist& nl, const Technology& tech)
    : owned_(std::make_unique<CompiledNetlist>(nl)),
      cn_(*owned_),
      tech_(tech) {}

Sta::Sta(const CompiledNetlist& cn, const Technology& tech)
    : cn_(cn), tech_(tech) {}

void Sta::add_false_path_prefix(const std::string& prefix) {
  false_prefixes_.push_back(prefix);
}

TimingReport Sta::run() const {
  const Netlist& nl = cn_.netlist();
  const int num_nets = cn_.num_nets();
  const int num_cells = cn_.num_cells();
  // arrival[n]: worst data arrival time at net n; -inf = unreachable
  // (undriven or only reachable through excluded cells).
  std::vector<double> arrival(static_cast<std::size_t>(num_nets), kMinusInf);
  // For traceback: which cell propagated the worst arrival to this net.
  std::vector<int> from_cell(static_cast<std::size_t>(num_nets), kNoCell);

  for (const auto& [name, bus] : nl.inputs()) {
    for (const NetId n : bus) {
      arrival[static_cast<std::size_t>(n)] = input_arrival_ps_;
    }
  }

  // Resolve false-path prefixes against cell names once per run instead of
  // per visit.
  std::vector<std::uint8_t> excluded;
  if (!false_prefixes_.empty()) {
    excluded.assign(static_cast<std::size_t>(num_cells), 0);
    for (int ci = 0; ci < num_cells; ++ci) {
      const std::string& name = nl.cell(ci).name;
      for (const std::string& p : false_prefixes_) {
        if (starts_with(name, p)) {
          excluded[static_cast<std::size_t>(ci)] = 1;
          break;
        }
      }
    }
  }
  const auto is_false = [&](int ci) {
    return !excluded.empty() && excluded[static_cast<std::size_t>(ci)] != 0;
  };

  for (const int ci : cn_.full_order()) {
    if (is_false(ci)) continue;
    const CellType type = cn_.cell_type(ci);

    if (type == CellType::kDff) {
      // Launch point: Q is valid clk-to-q after the edge.
      const NetId q = cn_.cell_outputs(ci)[0];
      if (tech_.scaled_clk_to_q_ps() > arrival[static_cast<std::size_t>(q)]) {
        arrival[static_cast<std::size_t>(q)] = tech_.scaled_clk_to_q_ps();
        from_cell[static_cast<std::size_t>(q)] = ci;
      }
      continue;
    }
    if (type == CellType::kTie0 || type == CellType::kTie1) {
      // Constants are timing-stable; they never launch a path.
      continue;
    }

    const NetId* ins = cn_.cell_inputs(ci);
    const int n_in = cn_.num_cell_inputs(ci);
    double worst_in = kMinusInf;
    for (int i = 0; i < n_in; ++i) {
      worst_in = std::max(worst_in, arrival[static_cast<std::size_t>(ins[i])]);
    }
    if (worst_in == kMinusInf) continue;  // feeds only from excluded logic

    const NetId* outs = cn_.cell_outputs(ci);
    const int n_out = cn_.num_cell_outputs(ci);
    for (int oi = 0; oi < n_out; ++oi) {
      const double t = worst_in + tech_.scaled_delay_ps(type, oi);
      const NetId n = outs[oi];
      if (t > arrival[static_cast<std::size_t>(n)]) {
        arrival[static_cast<std::size_t>(n)] = t;
        from_cell[static_cast<std::size_t>(n)] = ci;
      }
    }
  }

  // Collect endpoints.
  TimingReport report;
  double worst = 0.0;
  NetId worst_net = kNoNet;
  std::string endpoint = "none";

  for (const auto& [name, bus] : nl.outputs()) {
    for (const NetId n : bus) {
      const double t = arrival[static_cast<std::size_t>(n)];
      if (t != kMinusInf && t > worst) {
        worst = t;
        worst_net = n;
        endpoint = "output:" + name;
      }
    }
  }
  for (const int ci : cn_.dff_cells()) {
    if (is_false(ci)) continue;
    const NetId d = cn_.cell_inputs(ci)[0];
    const double t = arrival[static_cast<std::size_t>(d)];
    if (t == kMinusInf) continue;
    const double required = t + tech_.scaled_setup_ps();
    if (required > worst) {
      worst = required;
      worst_net = d;
      endpoint = "dff:" + nl.cell(ci).name;
    }
  }

  report.min_period_ps = worst;
  report.endpoint = endpoint;

  // Trace the critical path back through the argmax predecessors.
  std::vector<TimingPathStep> path;
  NetId n = worst_net;
  while (n != kNoNet) {
    const int ci = from_cell[static_cast<std::size_t>(n)];
    if (ci == kNoCell) break;
    const Cell& cell = nl.cell(ci);
    path.push_back(TimingPathStep{cell.name, cell_type_name(cell.type),
                                  arrival[static_cast<std::size_t>(n)]});
    if (cell.type == CellType::kDff) break;  // reached a launch point
    // Continue from the worst input of this cell.
    NetId best = kNoNet;
    double best_t = kMinusInf;
    for (const NetId in : cell.inputs) {
      if (arrival[static_cast<std::size_t>(in)] > best_t) {
        best_t = arrival[static_cast<std::size_t>(in)];
        best = in;
      }
    }
    n = best;
  }
  std::reverse(path.begin(), path.end());
  report.critical_path = std::move(path);
  return report;
}

}  // namespace af::hw
