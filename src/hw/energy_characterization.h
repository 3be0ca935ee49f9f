// Monte-Carlo energy characterization of the PE datapath.
//
// Derives the per-op entries of arch::EnergyParams from measured gate-level
// toggles instead of hand-fit constants: an ArrayFlex PE netlist is driven
// with random operand streams on NetlistSim's 64-lane gate tape, each cell's
// toggle count is priced at its library switch_energy_fj, and each
// hierarchical group's energy is divided by the number of simulated MAC
// operations.  This is the repo's one toggle pricer, and the
// simulation-calibrated analog of a SAIF-annotated power characterization
// run: an alternative to EnergyParams::generic28nm()'s paper-anchored fit.
//
// The stimulus sequence (cfg + weights latch, one warm-up step, `cycles`
// streamed steps, a final eval) is what SimEquivalenceTest replays on the
// six design_sweep variants against 64 scalar reference simulators, and
// calibration_probe's golden pins the default run's energies.  Random
// stimulus changes the inputs of 41% (8-bit PE) to 95% (32-bit) of the
// cells on every cycle, which is why the simulator sweeps every cell rather
// than tracking which ones changed.
//
// Only zero-delay-observable parameters are measured:
//   e_mult_fj, e_csa_fj, e_bypass_mux_fj, e_cpa_fj   — per-op group energy;
//   e_reg_bit_fj                                     — per latched data bit;
//   e_clk_bit_fj                                     — DFF clock-pin energy,
//       the library's DFF switch_energy_fj, charged per enabled FF bit per
//       cycle whatever the data;
//   leak_mw_per_pe                                   — summed cell leakage.
// Glitch factors (a zero-delay simulator evaluates each cell once, so there
// are no spurious transitions to observe), the accumulator energy (no
// accumulator netlist exists) and the clock-tree split are carried over from
// `base` unchanged.

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "arch/power_model.h"
#include "hw/builders/multiplier.h"

namespace af::hw {

struct EnergyCharacterizationOptions {
  int input_bits = 32;  // activation / weight width (paper: 32-bit quantized)
  int acc_bits = 64;    // column accumulation width (paper: 64)
  // Booth is what synthesis emits for 32-bit MACs (see builders/multiplier.h);
  // kWallace characterizes the plain-array structure instead.
  MultiplierStyle multiplier = MultiplierStyle::kBooth;
  // Clock cycles of random stimulus; each cycle carries 64 independent lanes,
  // so the Monte-Carlo sample count is 64 * cycles.
  int cycles = 256;
  std::uint64_t seed = 0x5eedULL;
};

struct CharacterizedEnergy {
  // Measured fields filled in; unobservable fields carried over from `base`.
  arch::EnergyParams params;
  // Diagnostics.
  double lane_cycles = 0.0;  // cycles * 64 simulated MAC operations
  int cells = 0;             // PE netlist size
  std::uint64_t total_toggles = 0;
  std::map<std::string, double> group_fj_per_op;  // per PE component
};

CharacterizedEnergy characterize_energy(
    const EnergyCharacterizationOptions& options = {},
    const arch::EnergyParams& base = arch::EnergyParams::generic28nm());

}  // namespace af::hw
