// Gate-level netlist: standard cells connected by single-bit nets.
//
// Datapath builders (hw/builders) emit netlists for the PE's components;
// the STA engine computes critical paths over them and the area/power models
// aggregate their cells.  Names use hierarchical "group/leaf" paths so area
// and power can be attributed per component ("mul/", "cpa/", "csa/", ...).
//
// Netlist is an append-only builder with no derived state: it checks each
// cell's arity and pin range as the cell is added.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/cells.h"

namespace af::hw {

using NetId = std::int32_t;
inline constexpr NetId kNoNet = -1;
// The driver of a net no cell drives (a primary input or an undriven net).
inline constexpr int kNoCell = -1;

// A bus is an ordered list of nets, LSB first.
using Bus = std::vector<NetId>;

struct Cell {
  CellType type;
  std::string name;
  std::vector<NetId> inputs;
  std::vector<NetId> outputs;
};

class Netlist {
 public:
  Netlist() = default;

  // --- construction -------------------------------------------------------

  NetId new_net();
  Bus new_bus(int width);

  // Adds a cell; arity is validated against the library entry.  Returns the
  // cell index.
  int add_cell(CellType type, std::string name, std::vector<NetId> inputs,
               std::vector<NetId> outputs);

  // Constant nets (lazily created TIE cells, shared per netlist).
  NetId const0();
  NetId const1();

  // Declare primary input/output buses by name.  A net may be declared at
  // most once as a primary input.
  void bind_input(const std::string& name, Bus bus);
  void bind_output(const std::string& name, Bus bus);

  // Pushes/pops a hierarchical name prefix applied to add_cell names.
  void push_scope(const std::string& scope);
  void pop_scope();

  // --- inspection ---------------------------------------------------------
  // Cells in the order they were added.  CompiledNetlist
  // (hw/compiled_netlist.h) checks the whole design (one driver per net, no
  // combinational cycle) and orders it.

  int num_nets() const { return next_net_; }
  const std::vector<Cell>& cells() const { return cells_; }
  const Cell& cell(int index) const;

  const std::unordered_map<std::string, Bus>& inputs() const { return inputs_; }
  const std::unordered_map<std::string, Bus>& outputs() const { return outputs_; }
  const Bus& input(const std::string& name) const;
  const Bus& output(const std::string& name) const;

  // Count of cells of a given type.
  int count_cells(CellType type) const;

  // Total cell count.
  int num_cells() const { return static_cast<int>(cells_.size()); }

 private:
  NetId next_net_ = 0;
  std::vector<Cell> cells_;
  std::unordered_map<std::string, Bus> inputs_;
  std::unordered_map<std::string, Bus> outputs_;
  std::vector<std::string> scope_stack_;
  NetId const0_ = kNoNet;
  NetId const1_ = kNoNet;
};

// RAII helper for hierarchical naming scopes.
class ScopedName {
 public:
  ScopedName(Netlist& nl, const std::string& scope) : nl_(nl) {
    nl_.push_scope(scope);
  }
  ~ScopedName() { nl_.pop_scope(); }
  ScopedName(const ScopedName&) = delete;
  ScopedName& operator=(const ScopedName&) = delete;

 private:
  Netlist& nl_;
};

}  // namespace af::hw
