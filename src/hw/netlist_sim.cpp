#include "hw/netlist_sim.h"

#include <algorithm>
#include <numeric>

#include "util/math.h"
#include "util/status.h"

namespace af::hw {
namespace {

inline std::uint64_t broadcast(bool v) { return v ? ~std::uint64_t{0} : 0; }

// The tape counts toggles through one of two popcounts, chosen by the
// kernel it is instantiated into (pick_tape_kernel, below).  std::popcount
// and __builtin_popcountll become a libgcc call on the baseline x86-64 ISA,
// which has no POPCNT instruction, so the portable kernel counts with a
// branch-free SWAR sequence; inlined into a target("popcnt") function, the
// builtin is the one POPCNT instruction.  Both are always_inline: a copy
// left out of line would be compiled for the baseline ISA.
struct SwarPopcount {
  [[gnu::always_inline]] static std::uint64_t count(std::uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (x * 0x0101010101010101ULL) >> 56;
  }
};

struct BuiltinPopcount {
  [[gnu::always_inline]] static std::uint64_t count(std::uint64_t x) {
    return static_cast<std::uint64_t>(__builtin_popcountll(x));
  }
};

// In-place transpose of a 64x64 bit matrix: afterwards bit c of rows[r] is
// what bit r of rows[c] was.  Six rounds of block swaps, halving the block
// size each round.
void transpose64(std::uint64_t* rows) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((rows[k] >> j) ^ rows[k | j]) & m;
      rows[k] ^= t << j;
      rows[k | j] ^= t;
    }
  }
}

// Evaluates one tape run of `kType` cells (kIn inputs, kOut outputs each):
// computes every cell's outputs from the current net words and adds the
// lanes of `mask` that flipped to the cell's toggle count.  The run's cells
// sit on one level, so none reads another's output.
template <class Popcount, CellType kType, int kIn, int kOut>
[[gnu::always_inline]] inline void eval_run(const NetId* pins,
                                            const int* cells, int size,
                                            std::uint64_t* values,
                                            std::uint64_t* toggles,
                                            std::uint64_t mask) {
  AF_ASSERT(cell_info(kType).num_inputs == kIn &&
                cell_info(kType).num_outputs == kOut,
            "tape arity differs from the library for "
                << cell_type_name(kType));
  for (int c = 0; c < size; ++c, pins += kIn + kOut) {
    std::uint64_t in[kIn > 0 ? kIn : 1] = {};
    std::uint64_t out[kOut] = {};
    for (int i = 0; i < kIn; ++i) in[i] = values[pins[i]];
    eval_cell_u64(kType, in, out);
    std::uint64_t flips = 0;
    for (int o = 0; o < kOut; ++o) {
      std::uint64_t& net = values[pins[kIn + o]];
      flips += Popcount::count((net ^ out[o]) & mask);
      net = out[o];
    }
    toggles[cells[c]] += flips;
  }
}

// One eval of the gate tape: presents the latched / forced DFF states on
// their Q nets, then sweeps every run, counting the lanes of `mask` that
// flip.
template <class Popcount>
[[gnu::always_inline]] inline void sweep_tape(const CompiledNetlist& cn,
                                              const std::uint64_t* dff_state,
                                              std::uint64_t* values,
                                              std::uint64_t* toggles,
                                              std::uint64_t mask) {
  for (const int ci : cn.dff_cells()) {
    std::uint64_t& q = values[cn.cell_outputs(ci)[0]];
    const std::uint64_t next = dff_state[ci];
    toggles[ci] += Popcount::count((q ^ next) & mask);
    q = next;
  }

  for (const TapeRun& run : cn.tape()) {
    const NetId* pins = cn.run_pins(run);
    const int* cells = cn.run_cells(run);
    const int n = run.size;
    switch (run.type) {
#define AF_TAPE_CASE(type, in, out)                                          \
  case CellType::type:                                                       \
    eval_run<Popcount, CellType::type, in, out>(pins, cells, n, values,      \
                                                toggles, mask);              \
    break;
      AF_TAPE_CASE(kTie0, 0, 1)
      AF_TAPE_CASE(kTie1, 0, 1)
      AF_TAPE_CASE(kInv, 1, 1)
      AF_TAPE_CASE(kBuf, 1, 1)
      AF_TAPE_CASE(kNand2, 2, 1)
      AF_TAPE_CASE(kNor2, 2, 1)
      AF_TAPE_CASE(kAnd2, 2, 1)
      AF_TAPE_CASE(kOr2, 2, 1)
      AF_TAPE_CASE(kXor2, 2, 1)
      AF_TAPE_CASE(kXnor2, 2, 1)
      AF_TAPE_CASE(kAoi21, 3, 1)
      AF_TAPE_CASE(kOai21, 3, 1)
      AF_TAPE_CASE(kMux2, 3, 1)
      AF_TAPE_CASE(kHalfAdder, 2, 2)
      AF_TAPE_CASE(kFullAdder, 3, 2)
      AF_TAPE_CASE(kClockGate, 1, 1)
#undef AF_TAPE_CASE
      case CellType::kDff:
        AF_ASSERT(false, "DFF on the combinational tape");
        break;
    }
  }
}

using TapeKernel = void (*)(const CompiledNetlist& cn,
                            const std::uint64_t* dff_state,
                            std::uint64_t* values, std::uint64_t* toggles,
                            std::uint64_t mask);

// The portable kernel: the tape with the SWAR popcount, for any CPU.
void sweep_tape_portable(const CompiledNetlist& cn,
                         const std::uint64_t* dff_state, std::uint64_t* values,
                         std::uint64_t* toggles, std::uint64_t mask) {
  sweep_tape<SwarPopcount>(cn, dff_state, values, toggles, mask);
}

#if defined(__x86_64__)
// The same loop compiled for POPCNT.  A target attribute, not a flag, so the
// rest of the tree keeps the baseline ISA; and picked by pick_tape_kernel,
// not by an ifunc clone, whose resolver would run before the
// ThreadSanitizer runtime starts.
__attribute__((target("popcnt"))) void sweep_tape_popcnt(
    const CompiledNetlist& cn, const std::uint64_t* dff_state,
    std::uint64_t* values, std::uint64_t* toggles, std::uint64_t mask) {
  sweep_tape<BuiltinPopcount>(cn, dff_state, values, toggles, mask);
}
#endif

TapeKernel pick_tape_kernel() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("popcnt")) return sweep_tape_popcnt;
#endif
  return sweep_tape_portable;
}

}  // namespace

NetlistSim::NetlistSim(const Netlist& nl, SimEngine engine)
    : owned_(std::make_unique<CompiledNetlist>(nl)),
      cn_(*owned_),
      engine_(engine),
      values_(static_cast<std::size_t>(cn_.num_nets()), 0),
      dff_state_(static_cast<std::size_t>(cn_.num_cells()), 0),
      toggles_(static_cast<std::size_t>(cn_.num_cells()), 0) {}

NetlistSim::NetlistSim(const CompiledNetlist& cn, SimEngine engine)
    : cn_(cn),
      engine_(engine),
      values_(static_cast<std::size_t>(cn_.num_nets()), 0),
      dff_state_(static_cast<std::size_t>(cn_.num_cells()), 0),
      toggles_(static_cast<std::size_t>(cn_.num_cells()), 0) {}

const Bus& NetlistSim::find_bus(const std::string& name) const {
  const Netlist& nl = cn_.netlist();
  const auto in_it = nl.inputs().find(name);
  if (in_it != nl.inputs().end()) return in_it->second;
  const auto out_it = nl.outputs().find(name);
  AF_CHECK(out_it != nl.outputs().end(), "unknown bus '" << name << "'");
  return out_it->second;
}

void NetlistSim::set_input_u64(const std::string& bus, std::uint64_t value) {
  const Bus& nets = cn_.netlist().input(bus);
  AF_CHECK(nets.size() <= 64, "bus '" << bus << "' wider than 64 bits");
  for (std::size_t i = 0; i < nets.size(); ++i) {
    values_[static_cast<std::size_t>(nets[i])] = broadcast((value >> i) & 1u);
  }
}

void NetlistSim::set_input_lanes(const std::string& bus,
                                 std::span<const std::uint64_t> values) {
  AF_CHECK(engine_ == SimEngine::kLevelizedTape,
           "set_input_lanes requires the tape engine");
  AF_CHECK(!values.empty() && values.size() <= kLanes,
           "lane count " << values.size() << " out of range");
  const Bus& nets = cn_.netlist().input(bus);
  AF_CHECK(nets.size() <= 64, "bus '" << bus << "' wider than 64 bits");
  // Row l holds lane l's bus value; lanes beyond values.size() repeat the
  // last vector.  The transpose turns row i into net i's word: bit l of bus
  // bit i.
  std::uint64_t rows[kLanes];
  const auto supplied = std::copy(values.begin(), values.end(), rows);
  std::fill(supplied, rows + kLanes, values.back());
  transpose64(rows);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    values_[static_cast<std::size_t>(nets[i])] = rows[i];
  }
}

void NetlistSim::set_active_lanes(int n) {
  AF_CHECK(n >= 1 && n <= kLanes, "active lane count " << n << " out of range");
  AF_CHECK(engine_ == SimEngine::kLevelizedTape || n == 1,
           "the reference engine is scalar (1 lane)");
  lane_mask_ = mask_low_bits(n);
}

void NetlistSim::eval_tape() {
  // The first eval establishes the baseline and counts no toggles, as the
  // reference engine's does.
  const std::uint64_t mask = first_eval_ ? 0 : lane_mask_;
  first_eval_ = false;
  static const TapeKernel picked = pick_tape_kernel();
  const TapeKernel kernel = portable_tape_ ? sweep_tape_portable : picked;
  kernel(cn_, dff_state_.data(), values_.data(), toggles_.data(), mask);
}

void NetlistSim::eval_reference() {
  // The seed algorithm: one scalar lane, full topological order per eval.
  bool in[4];
  bool out[2];
  for (const int ci : cn_.full_order()) {
    const CellType type = cn_.cell_type(ci);
    if (type == CellType::kDff) {
      // The DFF output shows the stored state, not the D input.
      const NetId q = cn_.cell_outputs(ci)[0];
      const bool prev = (values_[static_cast<std::size_t>(q)] & 1u) != 0;
      const bool next = (dff_state_[static_cast<std::size_t>(ci)] & 1u) != 0;
      if (!first_eval_ && prev != next) ++toggles_[static_cast<std::size_t>(ci)];
      values_[static_cast<std::size_t>(q)] = broadcast(next);
      continue;
    }
    const NetId* ins = cn_.cell_inputs(ci);
    const int n_in = cn_.num_cell_inputs(ci);
    for (int i = 0; i < n_in; ++i) {
      in[i] = (values_[static_cast<std::size_t>(ins[i])] & 1u) != 0;
    }
    eval_cell(type, in, out);
    const NetId* outs = cn_.cell_outputs(ci);
    const int n_out = cn_.num_cell_outputs(ci);
    for (int i = 0; i < n_out; ++i) {
      const NetId n = outs[i];
      const bool prev = (values_[static_cast<std::size_t>(n)] & 1u) != 0;
      if (!first_eval_ && prev != out[i]) {
        ++toggles_[static_cast<std::size_t>(ci)];
      }
      values_[static_cast<std::size_t>(n)] = broadcast(out[i]);
    }
  }
  first_eval_ = false;
}

void NetlistSim::eval() {
  if (engine_ == SimEngine::kLevelizedTape) {
    eval_tape();
  } else {
    eval_reference();
  }
}

void NetlistSim::step() {
  eval();
  // Latch from the precomputed DFF list (the seed scanned every cell here).
  for (const int ci : cn_.dff_cells()) {
    const NetId d = cn_.cell_inputs(ci)[0];
    dff_state_[static_cast<std::size_t>(ci)] =
        values_[static_cast<std::size_t>(d)];
  }
}

std::uint64_t NetlistSim::get_u64(const std::string& bus) const {
  return get_u64_lane(bus, 0);
}

std::uint64_t NetlistSim::get_u64_lane(const std::string& bus,
                                       int lane) const {
  AF_CHECK(lane >= 0 && lane < kLanes, "lane " << lane << " out of range");
  const Bus& nets = find_bus(bus);
  AF_CHECK(nets.size() <= 64, "bus '" << bus << "' wider than 64 bits");
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    out |= ((values_[static_cast<std::size_t>(nets[i])] >> lane) & 1u) << i;
  }
  return out;
}

bool NetlistSim::net_value(NetId net) const { return net_value_lane(net, 0); }

bool NetlistSim::net_value_lane(NetId net, int lane) const {
  AF_CHECK(net >= 0 && net < cn_.num_nets(), "net out of range");
  AF_CHECK(lane >= 0 && lane < kLanes, "lane " << lane << " out of range");
  return ((values_[static_cast<std::size_t>(net)] >> lane) & 1u) != 0;
}

void NetlistSim::set_dff_state(int cell_index, bool value) {
  AF_CHECK(cell_index >= 0 && cell_index < cn_.num_cells(),
           "cell index out of range");
  AF_CHECK(cn_.cell_type(cell_index) == CellType::kDff,
           "cell " << cell_index << " is not a DFF");
  dff_state_[static_cast<std::size_t>(cell_index)] = broadcast(value);
}

namespace detail {

void use_portable_tape(NetlistSim& sim) { sim.portable_tape_ = true; }

}  // namespace detail

std::uint64_t NetlistSim::total_toggles() const {
  return std::accumulate(toggles_.begin(), toggles_.end(), std::uint64_t{0});
}

void NetlistSim::reset_activity() {
  std::fill(toggles_.begin(), toggles_.end(), 0);
}

}  // namespace af::hw
