// Sparse-layer execution — the paper's declared future work (Section V):
// "since sparse layers can be mapped to GEMM blocks and executed by SAs
// using efficient peripheral circuitry, we plan to also explore the
// applicability of ArrayFlex to sparse layers."
//
// This module implements the block-level variant of that idea: the weight
// matrix B is inspected at tile granularity (R x C blocks, the unit the
// weight-stationary array loads); tiles that are entirely zero are skipped
// by the sequencer, so they cost neither preload nor streaming cycles.
// The latency model becomes
//
//     L_total(k) = L(k) * nnz_tiles          (vs. Eq. 4's all-tiles product)
//
// and the cycle-accurate simulator verifies both the cycle count and that
// skipping cannot change the result (an all-zero B tile contributes zero to
// every accumulator).

#pragma once

#include <cstdint>
#include <vector>

#include "arch/config.h"
#include "gemm/matrix.h"
#include "gemm/tiling.h"
#include "util/rng.h"

namespace af::arch {

// Which R x C tiles of a weight matrix hold at least one non-zero.
class TileOccupancy {
 public:
  // Scan an explicit weight matrix (N x M) at tile granularity.
  static TileOccupancy from_matrix(const gemm::Mat32& b, int rows, int cols);

  // Synthetic occupancy: each tile is non-zero with probability `density`
  // (deterministic given the RNG) — used to model pruned layers whose
  // actual weights we do not have.
  static TileOccupancy synthetic(const gemm::GemmShape& shape, int rows,
                                 int cols, double density, Rng& rng);

  std::int64_t row_tiles() const { return row_tiles_; }
  std::int64_t col_tiles() const { return col_tiles_; }
  std::int64_t total_tiles() const { return row_tiles_ * col_tiles_; }
  std::int64_t nonzero_tiles() const;
  double density() const;

  bool is_nonzero(std::int64_t row_tile, std::int64_t col_tile) const;

  // Throws af::Error{kInvalidArgument}, naming both grids, unless this is
  // exactly `shape`'s weight matrix (n x m) tiled by a rows x cols array.
  void check_grid(const gemm::GemmShape& shape, std::int64_t rows,
                  std::int64_t cols) const;

 private:
  TileOccupancy(std::int64_t row_tiles, std::int64_t col_tiles);

  std::int64_t row_tiles_ = 0;
  std::int64_t col_tiles_ = 0;
  std::vector<std::uint8_t> nonzero_;
};

// Cycles for a tiled GEMM when all-zero tiles are skipped:
// L(k) * nnz_tiles.  Falls back to Eq. 4 when the occupancy is dense.
std::int64_t sparse_total_latency_cycles(const gemm::GemmShape& shape,
                                         const ArrayConfig& config, int k,
                                         const TileOccupancy& occupancy);

}  // namespace af::arch
