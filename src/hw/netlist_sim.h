// Functional (zero-delay) simulation of a gate-level netlist.
//
// Used to verify that the datapath builders are logically correct: the
// generated Wallace multiplier must multiply, the Brent–Kung adder must add,
// the carry-save column must preserve sums.  Also counts toggles per cell,
// which feeds the netlist-level power model (the SAIF/VCD analog of the
// paper's toggle-annotated power numbers).
//
// Two engines share one interface:
//
//   * SimEngine::kLevelizedTape (default) — compiled, levelized, 64-lane
//     bit-parallel.  Nets carry a uint64_t word whose bit `l` is stimulus
//     lane `l`, so one eval() applies up to 64 independent input vectors.
//     eval() sweeps the CompiledNetlist's gate tape once: every
//     combinational cell evaluates on every eval, in runs of one cell type
//     with the type dispatch outside the inner loop, and each output's
//     flipped active lanes are popcounted into its cell's toggle count.
//     Random stimulus re-evaluates most of a datapath on every cycle, so
//     skipping quiet cells would cost more than it saves.
//
//   * SimEngine::kReferenceFullOrder — the original engine: re-evaluates
//     the entire topological order per eval(), one scalar lane.  Kept as
//     the equivalence oracle and the baseline for bench_netlist_sim.
//
// The scalar API (set_input / get / net_value / set_dff_state) broadcasts
// to all lanes and reads lane 0, so scalar callers behave identically on
// both engines, per-cell toggle counts included.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/bitvec.h"
#include "hw/compiled_netlist.h"
#include "hw/netlist.h"

namespace af::hw {

enum class SimEngine : std::uint8_t {
  kLevelizedTape,      // compiled gate tape, 64-lane bit-parallel
  kReferenceFullOrder, // full topological order, one scalar lane (oracle)
};

class NetlistSim {
 public:
  // Number of independent stimulus lanes carried per net.
  static constexpr int kLanes = 64;

  // Compiles the netlist privately.
  explicit NetlistSim(const Netlist& nl,
                      SimEngine engine = SimEngine::kLevelizedTape);
  // Shares an existing compilation (e.g. with Sta or other sims); the
  // CompiledNetlist must outlive the simulator.
  explicit NetlistSim(const CompiledNetlist& cn,
                      SimEngine engine = SimEngine::kLevelizedTape);

  SimEngine engine() const { return engine_; }
  const CompiledNetlist& compiled() const { return cn_; }

  // --- scalar API (value broadcast to every lane; reads observe lane 0) ---

  // Assign a primary input bus (LSB-first from the low bits of `value`).
  void set_input(const std::string& bus, const BitVec& value);
  void set_input_u64(const std::string& bus, std::uint64_t value);

  // Re-evaluate combinational logic from the current inputs and DFF states.
  // Counts toggles relative to the previous evaluation.
  void eval();

  // eval(), then latch every DFF: q <- d.  Models one clock edge.
  void step();

  // Read an output or any bound bus after eval().
  BitVec get(const std::string& bus) const;
  std::uint64_t get_u64(const std::string& bus) const;

  bool net_value(NetId net) const;

  // Force a DFF state (by cell index); used to initialize registers.
  void set_dff_state(int cell_index, bool value);

  // --- 64-lane API (tape engine only) ------------------------------------

  // Load `n` (1..64) stimulus vectors onto an input bus: values[l] is the
  // bus value for lane l.  Lanes n..63 replicate values[n-1], so every lane
  // carries a vector the caller supplied.
  void set_input_lanes(const std::string& bus, const std::uint64_t* values,
                       int n);
  void set_input_lanes(const std::string& bus,
                       const std::vector<std::uint64_t>& values);

  // Number of lanes whose transitions count toward toggles() (default 1, so
  // scalar use matches the reference engine exactly).
  void set_active_lanes(int n);

  std::uint64_t get_u64_lane(const std::string& bus, int lane) const;
  bool net_value_lane(NetId net, int lane) const;

  // --- activity ------------------------------------------------------------

  // Toggle counters: number of output transitions observed per cell, summed
  // over the active lanes, since construction or reset_activity().
  const std::vector<std::uint64_t>& toggles() const { return toggles_; }
  std::uint64_t total_toggles() const;
  void reset_activity();

 private:
  const Bus& find_bus(const std::string& name) const;
  void eval_tape();
  void eval_reference();

  std::unique_ptr<const CompiledNetlist> owned_;
  const CompiledNetlist& cn_;
  SimEngine engine_;

  std::vector<std::uint64_t> values_;     // per net, one bit per lane
  std::vector<std::uint64_t> dff_state_;  // per cell (only DFFs meaningful)
  std::vector<std::uint64_t> toggles_;    // per cell
  std::uint64_t lane_mask_ = 1;           // active lanes for toggle counting
  bool first_eval_ = true;
};

}  // namespace af::hw
