// Splits a tiled GEMM into scratchpad-resident working sets, issues the
// DMA fetch/evict stream with double-buffering, and counts the stall
// cycles whenever compute outruns the fetch stream.
//
// The array executes the GEMM as a grid of T x R by R x C tile products
// (gemm/tiling.h): row groups over the reduction dimension N, column
// groups over the output dimension M.  Per visit (i, j) the array needs
// the activation panel A(i) (T x n_extent), the weight tile B(i, j)
// (n_extent x m_extent), and accumulates into the output group C(j)
// (T x m_extent).  The scheduler decides which of those stays resident in
// the scratchpad (arch::ReuseStrategy) and streams the rest through
// double-buffered DMA:
//
//   output_stationary  M-outer; per-visit A + B fetches, C(j) accumulates
//                      in place and is evicted once per group.
//   b_stationary       M-outer; each column group of B arrives in ONE
//                      group-sized burst, prefetched a group ahead — same
//                      traffic as output_stationary in fewer transfers.
//   a_stationary       N-outer; A(i) fetched once per row group.  Output
//                      partials stay resident when the whole C fits
//                      (minimal possible traffic: every operand moved
//                      exactly once), else they spill/reload per revisit.
//
// The DMA timeline is a single in-order channel: transfers issue in
// program order, each charged MemoryModel::transfer_cycles, fetches gated
// by the double-buffer being free (the visit two slots back — or one
// GROUP back for group-granular buffers — must have finished computing),
// evictions gated by their producing visit.  Compute of visit v starts at
// max(end of visit v-1, arrival of v's operands).  All integer math: both
// engine backends re-time through this exact code, preserving the exact
// analytic==cycle equivalence contract.
//
// The timeline is a max-plus recurrence in three times (channel free,
// last two compute ends): each visit's update is a max of sums, so it
// commutes with adding one constant to all three.  If a visit moved all
// three by the same d and the next visit is of its kind (same tile sizes,
// same reload decision), that visit moves them by d again, and so does
// every later one of the kind.  A dense plan therefore jumps over the rest
// of such a run: the times advance by run x d, the counters by run x the
// visit's transfers and bytes, and the walk resumes at the group's edge
// visit.  Interior groups repeat the same way and are jumped alike.  The
// result is bit-identical to the visit-by-visit walk; a sparse occupancy
// always walks, so planning a dense grid under an all-nonzero occupancy is
// the in-library oracle the tests hold the jump to.
//
// Block-sparse GEMMs (arch::TileOccupancy) skip zero tiles' visits AND
// their traffic; a column group with no executed visit moves no bytes at
// all (its output is zero and DRAM is assumed zero-initialized).

#pragma once

#include <cstdint>

#include "arch/config.h"
#include "arch/sparse.h"
#include "gemm/tiling.h"
#include "mem/memory_model.h"

namespace af::mem {

class TileScheduler {
 public:
  // Requires config.mem.enabled (a disabled hierarchy has no plan).
  explicit TileScheduler(const arch::ArrayConfig& config);

  // Schedule `shape`'s tile grid given the array cost of one tile visit
  // (`per_tile_cycles`, uniform across tiles — zero-padded edge tiles cost
  // the same as interior ones).  `occupancy` restricts execution to the
  // non-zero tiles (nullptr = dense); its tile grid must be `shape`'s
  // weight matrix tiled by this config's array.  Uses the config's reuse
  // strategy; kAuto plans every strategy that fits the scratchpad and
  // returns the cheapest (fewest total cycles, then fewest DRAM bytes).
  // Throws af::Error{kInvalidArgument} on a mismatched occupancy grid or
  // when no permitted strategy fits.
  MemoryPlan plan(const gemm::GemmShape& shape, std::int64_t per_tile_cycles,
                  const arch::TileOccupancy* occupancy = nullptr) const;

  // Smallest scratchpad (bytes) on which `strategy` can run `shape`,
  // double buffers included; kAuto = min over the concrete strategies.
  std::int64_t min_spad_bytes(const gemm::GemmShape& shape,
                              arch::ReuseStrategy strategy) const;

  const MemoryModel& model() const { return model_; }

 private:
  MemoryPlan plan_one(const gemm::GemmShape& shape,
                      arch::ReuseStrategy strategy,
                      std::int64_t per_tile_cycles,
                      const arch::TileOccupancy* occupancy) const;

  arch::ArrayConfig config_;
  MemoryModel model_;
};

// Projected DRAM traffic of one GEMM for serving admission: the compulsory
// A + B + C bytes (every operand moved once — the lower bound any reuse
// strategy can only meet, never beat).  Deliberately O(1) and independent
// of MemoryConfig::enabled so per-tenant byte accounting stays meaningful
// on magic-memory servers too.
std::int64_t projected_gemm_bytes(const gemm::GemmShape& shape,
                                  const arch::ArrayConfig& config);

// Projected DRAM traffic of a GEMM that RIDES a same-weight fusion: only
// its private A activations and C outputs move — the shared B panel is
// streamed once for the whole fused stack and billed to the batch member
// that brought it in.  The marginal byte cost batch assembly should charge
// a fused rider (charging projected_gemm_bytes would double-count B per
// rider and under-fill decode batches).
std::int64_t projected_fused_rider_bytes(const gemm::GemmShape& shape,
                                         const arch::ArrayConfig& config);

}  // namespace af::mem
