// Netlist-level power estimation.
//
// Two modes, mirroring how a real flow works:
//   * simulation-driven: per-cell toggle counts from NetlistSim (the analog
//     of SAIF/VCD-annotated power analysis);
//   * activity-factor-driven: a uniform or per-group switching activity
//     assumption (the analog of default-toggle-rate power analysis).
//
// Dynamic power per cell = alpha * E_switch * f; sequential cells add clock
// pin power every cycle unless they sit behind a disabled clock gate.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hw/compiled_netlist.h"
#include "hw/netlist.h"

namespace af::hw {

struct PowerBreakdown {
  double dynamic_mw = 0.0;
  double clock_mw = 0.0;
  double leakage_mw = 0.0;
  std::map<std::string, double> by_group_mw;  // first name component
};

struct PowerOptions {
  double frequency_ghz = 1.0;
  // Fraction of DFFs whose clock pin is active (1 - gated fraction).
  double clock_enable_fraction = 1.0;
  // Multiplier on switching energy to model voltage deviation from nominal:
  // energy scales with (v / v_nom)^2.
  double voltage_scale = 1.0;
};

// Simulation-driven: `toggles` is per-cell output-transition counts observed
// over `cycles` evaluated clock cycles.  With the 64-lane simulator,
// `cycles` is evals x active lanes (each lane is an independent stimulus
// stream contributing one cycle per eval).
PowerBreakdown power_from_activity(const Netlist& nl,
                                   const std::vector<std::uint64_t>& toggles,
                                   std::uint64_t cycles,
                                   const PowerOptions& options);

// Convenience overload for callers already holding the compilation their
// simulator ran on (pricing itself only walks the cell list, so this simply
// forwards to the Netlist form).
PowerBreakdown power_from_activity(const CompiledNetlist& cn,
                                   const std::vector<std::uint64_t>& toggles,
                                   std::uint64_t cycles,
                                   const PowerOptions& options);

// Activity-factor-driven: every combinational cell toggles with probability
// `activity` per cycle; group overrides win over the default.
PowerBreakdown power_from_factors(
    const Netlist& nl, double activity,
    const std::map<std::string, double>& group_activity,
    const PowerOptions& options);

}  // namespace af::hw
