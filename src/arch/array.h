// Cycle-accurate weight-stationary systolic array with configurable
// transparent pipelining (the paper's core contribution, Sections II-III).
//
// The simulator models, cycle by cycle:
//   * weight preload: one row of B per cycle shifting down the array
//     (R cycles, the R term of Eqs. 1/3);
//   * skewed activation injection at the west edge in batches of k words
//     (row r of the v-group vg = floor(r/k) receives A[t][r] at relative
//     cycle t + vg — paper Fig. 2(b));
//   * horizontal broadcast across each k-wide column group with registered
//     hops between groups;
//   * vertical reduction in redundant carry-save form through each k-tall
//     row group, resolved by the boundary PE's carry-propagate adder;
//   * south accumulators summing tile partial products.
//
// Every datum carries its logical tag (the row t of A it belongs to) purely
// for verification: tag mismatches abort, so a scheduling bug cannot
// silently produce correct-looking cycle counts.
//
// The run reports exact activity counters consumed by the power model and
// validated against the closed-form activity model (arch/activity.h).

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/config.h"
#include "arch/pe.h"
#include "gemm/matrix.h"
#include "gemm/tiling.h"

namespace af::util {
class ThreadPool;
}

namespace af::arch {

// Exact event counts from a simulation run.
struct ActivityCounters {
  std::int64_t mult_ops = 0;        // valid multiplications
  std::int64_t csa_ops = 0;         // 3:2 compressions
  std::int64_t cpa_ops = 0;         // carry-propagate resolutions
  std::int64_t hreg_writes = 0;     // horizontal pipeline register latches
  std::int64_t vreg_writes = 0;     // vertical boundary register latches
  std::int64_t wreg_writes = 0;     // weight register latches (preload shift)
  std::int64_t acc_writes = 0;      // south accumulator updates
  std::int64_t hreg_bypassed_bit_cycles = 0;  // clock-gated bits x cycles
  std::int64_t vreg_bypassed_bit_cycles = 0;
  std::int64_t streaming_cycles = 0;

  ActivityCounters& operator+=(const ActivityCounters& o);
  // Every counter times `factor` — n identical tiles' worth of one tile.
  ActivityCounters& operator*=(std::int64_t factor);

  // Exact equality over every counter (defaulted, so a newly added field
  // can never silently fall out of the engine facade's audit cross-check
  // or the equivalence suites — all integers, no tolerance question).
  bool operator==(const ActivityCounters&) const = default;
};

struct TileRunStats {
  std::int64_t total_cycles = 0;    // preload + streaming
  std::int64_t preload_cycles = 0;
  ActivityCounters activity;

  TileRunStats& operator+=(const TileRunStats& o);
};

// Observer invoked once per streaming cycle (after combinational propagate,
// before latching).  Used by the waveform example; null by default.
struct CycleSnapshot {
  std::int64_t relative_cycle = 0;
  // West-edge activations injected this cycle, one per row (0 when idle).
  const std::vector<std::int32_t>* west_inputs = nullptr;
  // South-edge values latched into accumulators this cycle, one per column
  // (valid flag parallel array).
  const std::vector<std::int64_t>* south_values = nullptr;
  const std::vector<std::uint8_t>* south_valid = nullptr;
};
using CycleObserver = std::function<void(const CycleSnapshot&)>;

// Streaming engine notes (perf): the epoch loop runs over flat,
// pre-allocated, row-major planes C columns wide, like B.  The R x C
// activation plane holds the word each PE multiplies this cycle; it shifts
// k_h columns east per cycle with one memmove, and column group 0 takes
// the west edge.  B itself is the weight plane (read in place, no
// transposed copy), and one (R/k_v - 1) x C plane holds the vertical
// boundary registers, updated in place by running row groups bottom-up.
// A row group's valid cells always form one contiguous column range, so
// each cycle is one gemm::column_mac call per row group (the vectorized
// kernel in gemm/multiply.h).  Activity counters are accounted from the
// valid ranges instead of per MAC; tag-skew verification (tag planes laid
// out like the activation and boundary planes) is compiled in only for
// debug builds (see AF_ASSERT).  Outputs, ActivityCounters and the
// CycleObserver stream are bit-identical to the original
// register-by-register emulation.
//
// Thread safety: run_tile/run_tile_asym keep all mutable state on the
// stack, so concurrent calls on one SystolicArray are safe — run_gemm and
// run_gemm_sparse exploit that by dispatching independent output-column
// stripes across the pool the array was constructed with (serially
// without one).  Threaded runs return bit-identical outputs and statistics
// (modular adds commute).
//
// Shared-pool contract: the array owns no threads; its pool is a
// constructor argument.  Components that drive several arrays at once (the
// serve:: shards, a threaded InferenceRunner) pass ONE pool everywhere so
// total worker count stays bounded instead of multiplying per component
// (engine::Engine is the one owner that builds a pool from SimOptions).
// The rules:
//   * the pool must outlive every run_* call on this array;
//   * concurrent run_gemm calls from different threads may share one pool
//     (parallel_for serializes the fan-outs against each other);
//   * a run_* call issued from inside a pool task executes its stripes
//     serially on the calling thread (ThreadPool::run_n's nested-dispatch
//     fallback), so nesting never deadlocks or oversubscribes.
class SystolicArray {
 public:
  // `pool` (nullable) runs the tiled entry points' column stripes; see the
  // shared-pool contract above.
  explicit SystolicArray(const ArrayConfig& config,
                         util::ThreadPool* pool = nullptr);

  const ArrayConfig& config() const { return config_; }

  // Compute one tile product: A(T x R) x B(R x C) in collapse mode k,
  // adding the result into `acc` (T x C, modular 64-bit).  Returns exact
  // cycle/activity statistics.  Requires a.cols() == R, b = R x C and
  // config().supports(k).
  TileRunStats run_tile(const gemm::Mat32& a, const gemm::Mat32& b, int k,
                        gemm::Mat64* acc, const CycleObserver& observer = {});

  // Asymmetric collapse: the PE's two configuration bits control the
  // horizontal and vertical transparency independently (paper Section
  // III-B), so the reduction pipeline can collapse by k_v while the
  // broadcast collapses by k_h.  The paper only evaluates k_h == k_v; this
  // generalization requires k_v | R and k_h | C and yields
  // L = R + R/k_v + C/k_h + T - 2 cycles.
  TileRunStats run_tile_asym(const gemm::Mat32& a, const gemm::Mat32& b,
                             int k_v, int k_h, gemm::Mat64* acc,
                             const CycleObserver& observer = {});

  // Full tiled GEMM per Fig. 1(c): X(T x M) = A(T x N) x B(N x M) with edge
  // tiles zero-padded.  Cycle counts match Eq. 4 exactly.
  TileRunStats run_gemm(const gemm::Mat32& a, const gemm::Mat32& b, int k,
                        gemm::Mat64* out);

  // Block-sparse execution (the paper's Section V future work): tiles of B
  // that are entirely zero are skipped by the sequencer and cost no cycles.
  // The result is bit-identical to run_gemm; the cycle count matches
  // arch::sparse_total_latency_cycles.
  TileRunStats run_gemm_sparse(const gemm::Mat32& a, const gemm::Mat32& b,
                               int k, gemm::Mat64* out);

 private:
  TileRunStats run_tiled(const gemm::Mat32& a, const gemm::Mat32& b, int k,
                         gemm::Mat64* out, bool skip_zero_tiles);

  ArrayConfig config_;
  util::ThreadPool* pool_ = nullptr;  // null = serial
};

}  // namespace af::arch
