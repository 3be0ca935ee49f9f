// Static timing analysis over a gate-level netlist.
//
// Computes worst-case arrival times with a single topological pass, exactly
// like the timing engine inside a synthesis tool (no derating, single
// corner).  Supports:
//   - launch points: primary inputs (configurable arrival) and DFF Q pins
//     (clk-to-q after the clock edge);
//   - capture points: primary outputs and DFF D pins (+ setup);
//   - false-path exclusion by cell-name prefix.  The paper relies on this:
//     "combinational paths that still exist in the design but are not used
//      are considered false paths.  We provide this information explicitly
//      to the static timing analyzer." (Section III-B)

#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "hw/cells.h"
#include "hw/compiled_netlist.h"
#include "hw/netlist.h"

namespace af::hw {

struct TimingPathStep {
  std::string cell_name;
  std::string cell_type;
  double arrival_ps = 0.0;
};

struct TimingReport {
  // Minimum clock period implied by the worst path (includes setup when the
  // endpoint is a DFF and clk-to-q when the startpoint is a DFF).
  double min_period_ps = 0.0;
  // Worst path, startpoint first.
  std::vector<TimingPathStep> critical_path;
  // Where the worst path ends: "output:<bus>" or "dff:<cell>".
  std::string endpoint;
};

class Sta {
 public:
  // Compiles the netlist privately.
  Sta(const Netlist& nl, const Technology& tech);
  // Shares an existing compilation (e.g. with NetlistSim); the
  // CompiledNetlist must outlive the analyzer.
  Sta(const CompiledNetlist& cn, const Technology& tech);

  // Exclude every cell whose hierarchical name starts with `prefix` from
  // timing propagation (false path / disabled arc).
  void add_false_path_prefix(const std::string& prefix);

  // Arrival time at primary inputs (default 0 = launched at the edge by an
  // upstream register external to this netlist).
  void set_input_arrival_ps(double ps) { input_arrival_ps_ = ps; }

  // Run the analysis.
  TimingReport run() const;

 private:
  std::unique_ptr<const CompiledNetlist> owned_;
  const CompiledNetlist& cn_;
  const Technology& tech_;
  std::vector<std::string> false_prefixes_;
  double input_arrival_ps_ = 0.0;
};

}  // namespace af::hw
