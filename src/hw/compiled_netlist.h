// CompiledNetlist: a lowered, immutable view of a Netlist optimized for
// repeated traversal.
//
// Netlist stores each cell's pins as per-cell std::vectors and derives the
// topological order lazily; every engine that walks the design (functional
// simulation, STA, power) used to chase those heap pointers per cell per
// query.  CompiledNetlist lowers the structure once into flat
// structure-of-arrays form:
//
//   * contiguous pin tables (one NetId array for all input pins, one for all
//     output pins, indexed by per-cell offsets);
//   * a levelized schedule: combinational cells sorted by logic depth, and
//     within a level by cell type;
//   * the gate tape, that schedule cut into runs of one cell type on one
//     level, each with its cells' pins laid out back to back.  NetlistSim
//     sweeps the tape once per eval with the cell-type dispatch outside the
//     inner loop; cells of one level never feed each other, so a run's
//     cells are independent;
//   * the DFF cell list, so clock edges latch registers without scanning
//     the whole design.
//
// NetlistSim, Sta and the power helpers all accept a CompiledNetlist so one
// compilation can be shared across engines.  The compiled view references
// the source Netlist (for cell names and bus bindings) and snapshots its
// structure: mutating the Netlist after compiling invalidates the
// CompiledNetlist.

#pragma once

#include <cstdint>
#include <vector>

#include "hw/netlist.h"

namespace af::hw {

// One run of the gate tape: `size` combinational cells of one type on one
// logic level, schedule()[first .. first + size).  Each cell's pins sit in
// the tape's pin array as its input nets followed by its output nets.
struct TapeRun {
  CellType type;
  std::int32_t first;  // index of the run's first cell in schedule()
  std::int32_t size;   // number of cells
  std::int32_t pins;   // index of the run's first pin in the tape pin array
};

class CompiledNetlist {
 public:
  explicit CompiledNetlist(const Netlist& nl);

  const Netlist& netlist() const { return nl_; }
  int num_nets() const { return num_nets_; }
  int num_cells() const { return num_cells_; }

  // --- flat per-cell structure -------------------------------------------

  CellType cell_type(int ci) const {
    return types_[static_cast<std::size_t>(ci)];
  }
  const NetId* cell_inputs(int ci) const {
    return pins_in_.data() + in_offset_[static_cast<std::size_t>(ci)];
  }
  int num_cell_inputs(int ci) const {
    return in_offset_[static_cast<std::size_t>(ci) + 1] -
           in_offset_[static_cast<std::size_t>(ci)];
  }
  const NetId* cell_outputs(int ci) const {
    return pins_out_.data() + out_offset_[static_cast<std::size_t>(ci)];
  }
  int num_cell_outputs(int ci) const {
    return out_offset_[static_cast<std::size_t>(ci) + 1] -
           out_offset_[static_cast<std::size_t>(ci)];
  }

  // --- levelized schedule and gate tape ----------------------------------

  // Logic depth of a combinational cell: 0 for TIE cells, otherwise
  // 1 + max depth over driving cells (DFF / primary-input drivers count as
  // depth 0).  -1 for DFFs, which are not part of the combinational
  // schedule.
  int level_of(int ci) const { return level_[static_cast<std::size_t>(ci)]; }
  int num_levels() const { return num_levels_; }
  // All combinational cells (TIEs included) in ascending level order, and
  // by cell type within a level: a valid topological order of the
  // combinational subgraph, and the cell order of the tape.
  const std::vector<int>& schedule() const { return schedule_; }

  // The tape's runs, in schedule order.
  const std::vector<TapeRun>& tape() const { return tape_; }
  const int* run_cells(const TapeRun& run) const {
    return schedule_.data() + run.first;
  }
  const NetId* run_pins(const TapeRun& run) const {
    return tape_pins_.data() + run.pins;
  }

  // DFF cell indices, in cell order.
  const std::vector<int>& dff_cells() const { return dff_cells_; }

  // Full topological order over every cell (DFFs first, then the levelized
  // combinational schedule).  Used by full-order evaluation and STA.
  const std::vector<int>& full_order() const { return full_order_; }

 private:
  const Netlist& nl_;
  int num_nets_ = 0;
  int num_cells_ = 0;
  int num_levels_ = 0;

  std::vector<CellType> types_;
  std::vector<std::int32_t> in_offset_;   // size num_cells + 1
  std::vector<std::int32_t> out_offset_;  // size num_cells + 1
  std::vector<NetId> pins_in_;
  std::vector<NetId> pins_out_;

  std::vector<int> level_;     // per cell; -1 for DFFs
  std::vector<int> schedule_;  // combinational cells by (level, type)
  std::vector<TapeRun> tape_;
  std::vector<NetId> tape_pins_;  // per scheduled cell: inputs, then outputs
  std::vector<int> dff_cells_;
  std::vector<int> full_order_;
};

}  // namespace af::hw
