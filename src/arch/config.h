// Array geometry, pipeline-mode and memory-hierarchy configuration.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace af::arch {

// Host-side simulation knobs — they change how fast the simulator runs,
// never what it computes.  Threaded runs are bit-exact and produce
// identical cycle/activity statistics to serial runs (tile partial sums
// are modular 64-bit adds, which commute).  Read by engine::Engine only:
// the engine builds the one pool its array, optimizer and runner share
// (SystolicArray takes its pool as a constructor argument).
struct SimOptions {
  // Worker threads of the engine's pool: 1 = serial (default), 0 = use
  // every hardware thread, n = exactly n threads.
  int num_threads = 1;
};

// Scratchpad reuse strategy of the memory hierarchy's tile scheduler
// (mem::TileScheduler): which operand stays resident in the scratchpad
// while the tiled GEMM sweeps the others through it.
//
//   kAStationary      N-outer sweep; the activation panel A(i) is fetched
//                     once per row group.  Output partials either stay
//                     resident (minimal DRAM traffic, largest footprint)
//                     or spill per revisit when they don't fit.
//   kBStationary      M-outer sweep; each weight column group of B is
//                     fetched in ONE group-sized DMA burst, prefetched a
//                     group ahead — fewest transfers, so the strategy of
//                     choice when DRAM latency (not bandwidth) dominates.
//   kOutputStationary M-outer sweep with per-tile fetches of A and B; the
//                     output group accumulates in place.  Smallest
//                     scratchpad footprint.
//   kAuto             plan all strategies that fit the scratchpad and take
//                     the cheapest (fewest total cycles, DRAM bytes as the
//                     tie-break).
enum class ReuseStrategy {
  kAuto = 0,
  kAStationary,
  kBStationary,
  kOutputStationary,
};

// Canonical name ("auto", "a_stationary", "b_stationary",
// "output_stationary") and its inverse; parse throws af::Error on unknown
// names, listing the registry.
const char* reuse_strategy_name(ReuseStrategy strategy);
ReuseStrategy parse_reuse_strategy(const std::string& name);

// Scratchpad/DRAM hierarchy in front of the array.  Disabled by default:
// the seed's magic-memory behavior (operands appear at the array edge for
// free) is reproduced bit-identically when `enabled` is false — no stall
// cycles, no DRAM traffic, no energy term.
struct MemoryConfig {
  bool enabled = false;
  // On-chip scratchpad capacity shared by the A/B tile double-buffers and
  // the output accumulator groups (see mem::TileScheduler for the
  // footprint formula per reuse strategy).
  std::int64_t spad_bytes = std::int64_t{1} << 20;  // 1 MiB
  // DRAM streaming bandwidth, bytes per array clock cycle.
  std::int64_t dram_bytes_per_cycle = 16;
  // Fixed DRAM access latency charged once per DMA transfer, cycles.
  std::int64_t dram_latency_cycles = 64;
  ReuseStrategy reuse = ReuseStrategy::kAuto;

  void validate() const;  // throws af::Error when enabled and inconsistent
  std::string to_string() const;

  // The public knob names, sorted — the machine-checkable source of truth
  // behind the README's "Memory hierarchy" table (ctest readme_registries
  // diffs the two via `engine_info --memory`).
  static std::vector<std::string> knob_names();
};

// Static description of an ArrayFlex systolic array instance.
//
// `supported_k` lists the pipeline-collapse depths the hardware can be
// configured to; every entry must divide both `rows` and `cols` (paper,
// Section IV: "collapsing three pipeline stages is not supported, since
// three does not divide exactly with the size of the SA").  k = 1 (normal
// pipeline) must always be supported.
struct ArrayConfig {
  int rows = 128;  // R
  int cols = 128;  // C
  int input_bits = 32;
  int acc_bits = 64;
  std::vector<int> supported_k = {1, 2, 4};
  SimOptions sim;
  // Memory hierarchy (off = magic memory, the seed default).
  MemoryConfig mem;

  // Throws af::Error when the configuration is inconsistent.
  void validate() const;

  bool supports(int k) const;

  // Largest supported collapse depth.
  int max_k() const;

  int num_pes() const { return rows * cols; }

  std::string to_string() const;

  // Convenience factories for the paper's evaluation setups.
  static ArrayConfig square(int side);                    // {1,2,4} modes
  static ArrayConfig square_with_modes(int side, std::vector<int> modes);
};

}  // namespace af::arch
