#include "hw/energy_characterization.h"

#include "hw/builders/pe_datapath.h"
#include "hw/compiled_netlist.h"
#include "hw/netlist.h"
#include "hw/netlist_sim.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/status.h"

namespace af::hw {
namespace {

// Second path component of "pe0/<group>/...": the PE sub-unit a cell belongs
// to ("mul"/"bmul", "csa", "cpa", "hmux", "vmux", "areg", "wreg", ...).
std::string pe_group(const std::string& name) {
  const auto first = name.find('/');
  if (first == std::string::npos) return "top";
  const auto second = name.find('/', first + 1);
  return second == std::string::npos
             ? name.substr(first + 1)
             : name.substr(first + 1, second - first - 1);
}

}  // namespace

CharacterizedEnergy characterize_energy(
    const EnergyCharacterizationOptions& options,
    const arch::EnergyParams& base) {
  AF_CHECK(options.cycles > 0, "characterization needs at least one cycle");
  AF_CHECK(options.input_bits >= 1 && options.input_bits <= 32,
           "input_bits out of range");
  AF_CHECK(options.acc_bits >= options.input_bits * 2 && options.acc_bits <= 64,
           "acc_bits out of range");

  Netlist nl;
  PeDatapathOptions pe_opt{options.input_bits, options.acc_bits};
  pe_opt.multiplier = options.multiplier;
  build_arrayflex_pe(nl, pe_opt);
  const CompiledNetlist compiled(nl);

  NetlistSim sim(compiled);
  sim.set_active_lanes(NetlistSim::kLanes);
  Rng rng(options.seed);
  const std::uint64_t in_mask = mask_low_bits(options.input_bits);
  // s_in spans product width plus a few accumulation bits (capped at the
  // accumulator width — with 32-bit inputs and a 64-bit accumulator the
  // product already covers the full bus, so no cap applies).
  const std::uint64_t psum_mask = mask_low_bits(
      options.acc_bits < 2 * options.input_bits + 4 ? options.acc_bits
                                                    : 2 * options.input_bits + 4);

  // Loads one uniform draw per lane onto `bus`, lane 0 first.
  std::uint64_t lanes[NetlistSim::kLanes];
  const auto drive_random = [&](const char* bus, std::uint64_t mask) {
    for (std::uint64_t& x : lanes) x = rng.next_u64() & mask;
    sim.set_input_lanes(bus, lanes);
  };

  // Normal (opaque) pipeline mode: the steady-state configuration whose
  // per-op energies the array power model prices.  The carry word between
  // PEs is zero in this mode.
  sim.set_input_u64("cfg_h", 0);
  sim.set_input_u64("cfg_v", 0);
  drive_random("w_in", in_mask);
  drive_random("a_in", in_mask);
  drive_random("s_in", psum_mask);
  sim.set_input_u64("c_in", 0);
  sim.step();  // cfg + weights latch
  sim.step();  // pipeline warm-up: first operands traverse the datapath
  sim.reset_activity();

  for (int cycle = 0; cycle < options.cycles; ++cycle) {
    drive_random("a_in", in_mask);
    drive_random("s_in", psum_mask);
    sim.step();
  }
  sim.eval();  // present the final latch so its register toggles are counted

  CharacterizedEnergy out;
  out.cells = compiled.num_cells();
  out.lane_cycles =
      static_cast<double>(options.cycles) * NetlistSim::kLanes;
  out.total_toggles = sim.total_toggles();

  std::map<std::string, double> group_fj;  // total fJ per group
  double dff_toggle_fj = 0.0;
  std::int64_t data_reg_bits = 0;
  for (int ci = 0; ci < compiled.num_cells(); ++ci) {
    const Cell& cell = nl.cell(ci);
    const double fj =
        static_cast<double>(sim.toggles()[static_cast<std::size_t>(ci)]) *
        cell_info(cell.type).switch_energy_fj;
    const std::string group = pe_group(cell.name);
    group_fj[group] += fj;
    if (cell.type == CellType::kDff && (group == "areg" || group == "wreg" ||
                                        group == "psumreg")) {
      dff_toggle_fj += fj;
      ++data_reg_bits;
    }
  }
  for (const auto& [group, fj] : group_fj) {
    out.group_fj_per_op[group] = fj / out.lane_cycles;
  }

  out.params = base;
  const auto per_op = [&](const char* group) {
    const auto it = out.group_fj_per_op.find(group);
    return it == out.group_fj_per_op.end() ? 0.0 : it->second;
  };
  out.params.e_mult_fj = per_op("mul") + per_op("bmul");
  out.params.e_csa_fj = per_op("csa");
  out.params.e_cpa_fj = per_op("cpa");
  out.params.e_bypass_mux_fj = per_op("hmux") + per_op("vmux");
  // Per-bit data energy of the registers that latch every cycle.  Weight
  // registers are stationary here (as in the array), so they contribute
  // almost nothing — exactly the behaviour the array model assumes when it
  // prices only *active* latched bits.
  AF_CHECK(data_reg_bits > 0, "PE netlist has no data registers");
  out.params.e_reg_bit_fj =
      dff_toggle_fj / (out.lane_cycles *
                       static_cast<double>(options.input_bits +
                                           options.acc_bits));
  // Clock pin energy per enabled FF bit per cycle: the library's DFF
  // switch energy, charged whatever the data.
  out.params.e_clk_bit_fj = cell_info(CellType::kDff).switch_energy_fj;
  double leak_nw = 0.0;
  for (const Cell& cell : nl.cells()) {
    leak_nw += cell_info(cell.type).leakage_nw;
  }
  out.params.leak_mw_per_pe = leak_nw * 1e-6;
  return out;
}

}  // namespace af::hw
