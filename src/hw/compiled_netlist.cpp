#include "hw/compiled_netlist.h"

#include "util/status.h"

namespace af::hw {

CompiledNetlist::CompiledNetlist(const Netlist& nl)
    : nl_(nl), num_nets_(nl.num_nets()), num_cells_(nl.num_cells()) {
  const std::size_t n_cells = static_cast<std::size_t>(num_cells_);

  // Flat pin tables.
  types_.resize(n_cells);
  in_offset_.resize(n_cells + 1, 0);
  out_offset_.resize(n_cells + 1, 0);
  std::size_t total_in = 0, total_out = 0;
  for (int ci = 0; ci < num_cells_; ++ci) {
    const Cell& cell = nl.cell(ci);
    types_[static_cast<std::size_t>(ci)] = cell.type;
    total_in += cell.inputs.size();
    total_out += cell.outputs.size();
    in_offset_[static_cast<std::size_t>(ci) + 1] =
        static_cast<std::int32_t>(total_in);
    out_offset_[static_cast<std::size_t>(ci) + 1] =
        static_cast<std::int32_t>(total_out);
  }
  pins_in_.reserve(total_in);
  pins_out_.reserve(total_out);
  for (int ci = 0; ci < num_cells_; ++ci) {
    const Cell& cell = nl.cell(ci);
    pins_in_.insert(pins_in_.end(), cell.inputs.begin(), cell.inputs.end());
    pins_out_.insert(pins_out_.end(), cell.outputs.begin(),
                     cell.outputs.end());
  }

  // Levelization.  topo_order() validates acyclicity and driver uniqueness
  // (via driver_of) before we walk it.
  const std::vector<int>& topo = nl.topo_order();
  const std::vector<int>& driver = nl.driver_of();
  level_.assign(n_cells, -1);
  int max_level = 0;
  for (const int ci : topo) {
    const CellType type = types_[static_cast<std::size_t>(ci)];
    if (type == CellType::kDff) {
      dff_cells_.push_back(ci);
      continue;  // sequential: stays at level -1
    }
    int lvl = 0;
    const NetId* in = cell_inputs(ci);
    const int n_in = num_cell_inputs(ci);
    for (int i = 0; i < n_in; ++i) {
      const int src = driver[static_cast<std::size_t>(in[i])];
      if (src == Netlist::kNoCell) continue;  // primary input
      const int src_lvl = level_[static_cast<std::size_t>(src)];
      // DFF drivers (src_lvl == -1) launch at depth 0, like primary inputs.
      if (src_lvl + 1 > lvl) lvl = src_lvl + 1;
    }
    // TIE cells have no inputs and sit at level 0; every other combinational
    // cell lands at >= 1, so input changes always propagate forward.
    if (n_in > 0 && lvl == 0) lvl = 1;
    level_[static_cast<std::size_t>(ci)] = lvl;
    if (lvl > max_level) max_level = lvl;
  }

  // Sort the combinational cells by (level, type) with a counting sort,
  // which keeps cell order within a key, then cut the schedule into one
  // tape run per key.
  num_levels_ = num_cells_ > static_cast<int>(dff_cells_.size())
                    ? max_level + 1
                    : 0;
  const auto key = [&](int ci) {
    return static_cast<std::size_t>(level_[static_cast<std::size_t>(ci)]) *
               kNumCellTypes +
           static_cast<std::size_t>(types_[static_cast<std::size_t>(ci)]);
  };
  std::vector<std::int32_t> cursor(
      static_cast<std::size_t>(num_levels_) * kNumCellTypes + 1, 0);
  for (int ci = 0; ci < num_cells_; ++ci) {
    if (level_[static_cast<std::size_t>(ci)] >= 0) ++cursor[key(ci) + 1];
  }
  for (std::size_t k = 1; k < cursor.size(); ++k) cursor[k] += cursor[k - 1];
  schedule_.resize(static_cast<std::size_t>(cursor.back()));
  for (int ci = 0; ci < num_cells_; ++ci) {
    if (level_[static_cast<std::size_t>(ci)] < 0) continue;
    schedule_[static_cast<std::size_t>(cursor[key(ci)]++)] = ci;
  }
  tape_pins_.reserve(pins_in_.size() + pins_out_.size());
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const int ci = schedule_[i];
    if (i == 0 || key(ci) != key(schedule_[i - 1])) {
      tape_.push_back(TapeRun{types_[static_cast<std::size_t>(ci)],
                              static_cast<std::int32_t>(i), 0,
                              static_cast<std::int32_t>(tape_pins_.size())});
    }
    ++tape_.back().size;
    tape_pins_.insert(tape_pins_.end(), cell_inputs(ci),
                      cell_inputs(ci) + num_cell_inputs(ci));
    tape_pins_.insert(tape_pins_.end(), cell_outputs(ci),
                      cell_outputs(ci) + num_cell_outputs(ci));
  }

  // Full order: DFFs (no combinational dependencies) first, then the
  // levelized schedule.
  full_order_.reserve(n_cells);
  full_order_.insert(full_order_.end(), dff_cells_.begin(), dff_cells_.end());
  full_order_.insert(full_order_.end(), schedule_.begin(), schedule_.end());
  AF_ASSERT(full_order_.size() == n_cells, "compiled schedule lost cells");
}

}  // namespace af::hw
