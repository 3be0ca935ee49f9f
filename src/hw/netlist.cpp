#include "hw/netlist.h"

#include <algorithm>

#include "util/status.h"

namespace af::hw {

NetId Netlist::new_net() { return next_net_++; }

Bus Netlist::new_bus(int width) {
  AF_CHECK(width >= 0, "bus width must be non-negative");
  Bus bus(static_cast<std::size_t>(width));
  for (auto& net : bus) net = new_net();
  return bus;
}

int Netlist::add_cell(CellType type, std::string name,
                      std::vector<NetId> inputs, std::vector<NetId> outputs) {
  const CellInfo& info = cell_info(type);
  AF_CHECK(static_cast<int>(inputs.size()) == info.num_inputs,
           info.name << " '" << name << "' expects " << info.num_inputs
                     << " inputs, got " << inputs.size());
  AF_CHECK(static_cast<int>(outputs.size()) == info.num_outputs,
           info.name << " '" << name << "' expects " << info.num_outputs
                     << " outputs, got " << outputs.size());
  for (const NetId n : inputs) {
    AF_CHECK(n >= 0 && n < next_net_, "input net " << n << " out of range");
  }
  for (const NetId n : outputs) {
    AF_CHECK(n >= 0 && n < next_net_, "output net " << n << " out of range");
  }
  std::string full_name;
  for (const auto& scope : scope_stack_) {
    full_name += scope;
    full_name += '/';
  }
  full_name += name;
  cells_.push_back(Cell{type, std::move(full_name), std::move(inputs),
                        std::move(outputs)});
  return static_cast<int>(cells_.size()) - 1;
}

NetId Netlist::const0() {
  if (const0_ == kNoNet) {
    const0_ = new_net();
    add_cell(CellType::kTie0, "tie0", {}, {const0_});
  }
  return const0_;
}

NetId Netlist::const1() {
  if (const1_ == kNoNet) {
    const1_ = new_net();
    add_cell(CellType::kTie1, "tie1", {}, {const1_});
  }
  return const1_;
}

void Netlist::bind_input(const std::string& name, Bus bus) {
  AF_CHECK(!inputs_.count(name), "duplicate input bus '" << name << "'");
  inputs_.emplace(name, std::move(bus));
}

void Netlist::bind_output(const std::string& name, Bus bus) {
  AF_CHECK(!outputs_.count(name), "duplicate output bus '" << name << "'");
  outputs_.emplace(name, std::move(bus));
}

void Netlist::push_scope(const std::string& scope) {
  scope_stack_.push_back(scope);
}

void Netlist::pop_scope() {
  AF_CHECK(!scope_stack_.empty(), "pop_scope on empty scope stack");
  scope_stack_.pop_back();
}

const Cell& Netlist::cell(int index) const {
  AF_CHECK(index >= 0 && index < num_cells(), "cell index out of range");
  return cells_[static_cast<std::size_t>(index)];
}

const Bus& Netlist::input(const std::string& name) const {
  const auto it = inputs_.find(name);
  AF_CHECK(it != inputs_.end(), "unknown input bus '" << name << "'");
  return it->second;
}

const Bus& Netlist::output(const std::string& name) const {
  const auto it = outputs_.find(name);
  AF_CHECK(it != outputs_.end(), "unknown output bus '" << name << "'");
  return it->second;
}

int Netlist::count_cells(CellType type) const {
  return static_cast<int>(
      std::count_if(cells_.begin(), cells_.end(),
                    [type](const Cell& c) { return c.type == type; }));
}

}  // namespace af::hw
