// Generic 28 nm standard-cell library model.
//
// The paper implements both systolic arrays with Cadence's flow on a 28 nm
// library.  We model a representative cell set with normalized delay, area,
// input capacitance, switching energy and leakage.  Absolute values are
// "generic 28 nm"; the clock model calibrates a single global delay scale so
// the conventional PE closes timing at the paper's 2 GHz anchor, after which
// all derived quantities (Eq. 5 coefficients, ablation deltas) follow from
// netlist structure rather than hand-picked constants.

#pragma once

#include <cstdint>
#include <string>

#include "util/status.h"

namespace af::hw {

enum class CellType : std::uint8_t {
  kTie0,   // constant 0
  kTie1,   // constant 1
  kInv,
  kBuf,
  kNand2,
  kNor2,
  kAnd2,
  kOr2,
  kXor2,
  kXnor2,
  kAoi21,  // !((a & b) | c)
  kOai21,  // !((a | b) & c)
  kMux2,   // sel ? b : a     (inputs: a, b, sel)
  kHalfAdder,  // outputs: sum, carry
  kFullAdder,  // outputs: sum, carry
  kDff,    // input: d, output: q (clock implicit)
  kClockGate,  // integrated clock-gating cell; input: en, output: gclk
};

// Number of defined cell types (for iteration).
inline constexpr int kNumCellTypes = 17;

struct CellInfo {
  const char* name;
  int num_inputs;
  int num_outputs;
  // Worst input-to-output propagation delay per output pin, in picoseconds
  // (pre-scaling).  Index 0 = first output.
  double delay_ps[2];
  double area_um2;
  double input_cap_ff;    // per input pin
  double switch_energy_fj;  // internal + load energy per output transition
  double leakage_nw;
};

// Static library entry for a cell type.
const CellInfo& cell_info(CellType type);

// Sequential-element timing parameters, shared by all DFFs.
struct SequentialTiming {
  double clk_to_q_ps = 45.0;
  double setup_ps = 30.0;
};

// Technology-level knobs.  `delay_scale` multiplies every cell delay
// (including clk-to-q and setup); arch::StaClockModel's calibration times
// its PE netlists at scale 1 and scales the results by the factor that
// puts the conventional PE on the paper's 500 ps anchor.
struct Technology {
  double delay_scale = 1.0;
  SequentialTiming seq;

  double scaled_delay_ps(CellType type, int output_index = 0) const;
  double scaled_clk_to_q_ps() const { return seq.clk_to_q_ps * delay_scale; }
  double scaled_setup_ps() const { return seq.setup_ps * delay_scale; }
};

// Functional evaluation of a combinational cell.  `inputs`/`outputs` are
// arrays of single-bit values; sizes must match the cell arity.
void eval_cell(CellType type, const bool* inputs, bool* outputs);

// 64-lane bit-parallel evaluation: bit `l` of every word is an independent
// stimulus lane, so one call evaluates the cell under 64 input vectors at
// once.  Semantically identical to eval_cell applied per lane.  Kept inline
// in the header: this is the innermost loop of the bit-parallel netlist
// simulator.
inline void eval_cell_u64(CellType type, const std::uint64_t* in,
                          std::uint64_t* out) {
  switch (type) {
    case CellType::kTie0:
      out[0] = 0;
      return;
    case CellType::kTie1:
      out[0] = ~std::uint64_t{0};
      return;
    case CellType::kInv:
      out[0] = ~in[0];
      return;
    case CellType::kBuf:
      out[0] = in[0];
      return;
    case CellType::kNand2:
      out[0] = ~(in[0] & in[1]);
      return;
    case CellType::kNor2:
      out[0] = ~(in[0] | in[1]);
      return;
    case CellType::kAnd2:
      out[0] = in[0] & in[1];
      return;
    case CellType::kOr2:
      out[0] = in[0] | in[1];
      return;
    case CellType::kXor2:
      out[0] = in[0] ^ in[1];
      return;
    case CellType::kXnor2:
      out[0] = ~(in[0] ^ in[1]);
      return;
    case CellType::kAoi21:
      out[0] = ~((in[0] & in[1]) | in[2]);
      return;
    case CellType::kOai21:
      out[0] = ~((in[0] | in[1]) & in[2]);
      return;
    case CellType::kMux2:
      out[0] = (in[2] & in[1]) | (~in[2] & in[0]);
      return;
    case CellType::kHalfAdder:
      out[0] = in[0] ^ in[1];
      out[1] = in[0] & in[1];
      return;
    case CellType::kFullAdder: {
      const std::uint64_t a = in[0], b = in[1], c = in[2];
      const std::uint64_t axb = a ^ b;
      out[0] = axb ^ c;
      out[1] = (a & b) | (axb & c);
      return;
    }
    case CellType::kDff:
      // Sequential: functional value handled by the simulator's state.
      out[0] = in[0];
      return;
    case CellType::kClockGate:
      out[0] = in[0];
      return;
  }
  AF_ASSERT(false, "unhandled cell type " << static_cast<int>(type));
  out[0] = 0;
}

// Human-readable cell-type name ("NAND2", "FA", ...).
const char* cell_type_name(CellType type);

}  // namespace af::hw
