#include "arch/sparse.h"

#include "arch/latency.h"
#include "util/math.h"
#include "util/status.h"

namespace af::arch {

TileOccupancy::TileOccupancy(std::int64_t row_tiles, std::int64_t col_tiles)
    : row_tiles_(row_tiles),
      col_tiles_(col_tiles),
      nonzero_(static_cast<std::size_t>(row_tiles * col_tiles), 0) {
  AF_CHECK(row_tiles > 0 && col_tiles > 0, "tile grid must be non-empty");
}

TileOccupancy TileOccupancy::from_matrix(const gemm::Mat32& b, int rows,
                                         int cols) {
  AF_CHECK(rows > 0 && cols > 0, "tile dimensions must be positive");
  AF_CHECK(b.rows() > 0 && b.cols() > 0, "weight matrix must be non-empty");
  TileOccupancy occ(ceil_div(b.rows(), rows), ceil_div(b.cols(), cols));
  for (std::int64_t r = 0; r < b.rows(); ++r) {
    for (std::int64_t c = 0; c < b.cols(); ++c) {
      if (b.at(r, c) != 0) {
        const std::int64_t rt = r / rows;
        const std::int64_t ct = c / cols;
        occ.nonzero_[static_cast<std::size_t>(rt * occ.col_tiles_ + ct)] = 1;
      }
    }
  }
  return occ;
}

TileOccupancy TileOccupancy::synthetic(const gemm::GemmShape& shape, int rows,
                                       int cols, double density, Rng& rng) {
  AF_CHECK(density >= 0.0 && density <= 1.0,
           "density must be in [0,1], got " << density);
  TileOccupancy occ(ceil_div(shape.n, rows), ceil_div(shape.m, cols));
  for (auto& bit : occ.nonzero_) {
    bit = rng.next_double() < density ? 1 : 0;
  }
  return occ;
}

std::int64_t TileOccupancy::nonzero_tiles() const {
  std::int64_t count = 0;
  for (const auto bit : nonzero_) count += bit;
  return count;
}

double TileOccupancy::density() const {
  return static_cast<double>(nonzero_tiles()) /
         static_cast<double>(total_tiles());
}

bool TileOccupancy::is_nonzero(std::int64_t row_tile,
                               std::int64_t col_tile) const {
  AF_CHECK(row_tile >= 0 && row_tile < row_tiles_ && col_tile >= 0 &&
               col_tile < col_tiles_,
           "tile index out of range");
  return nonzero_[static_cast<std::size_t>(row_tile * col_tiles_ + col_tile)] !=
         0;
}

void TileOccupancy::check_grid(const gemm::GemmShape& shape,
                               std::int64_t rows, std::int64_t cols) const {
  const std::int64_t want_rows = ceil_div(shape.n, rows);
  const std::int64_t want_cols = ceil_div(shape.m, cols);
  AF_CHECK(row_tiles_ == want_rows && col_tiles_ == want_cols,
           "occupancy tile grid " << row_tiles_ << "x" << col_tiles_
                                  << " does not match shape (n=" << shape.n
                                  << ", m=" << shape.m << ") on a " << rows
                                  << "x" << cols << " array (want "
                                  << want_rows << "x" << want_cols << ")");
}

std::int64_t sparse_total_latency_cycles(const gemm::GemmShape& shape,
                                         const ArrayConfig& config, int k,
                                         const TileOccupancy& occupancy) {
  AF_CHECK(config.supports(k), "mode k=" << k << " not supported");
  occupancy.check_grid(shape, config.rows, config.cols);
  return tile_latency_cycles(config.rows, config.cols, shape.t, k) *
         occupancy.nonzero_tiles();
}

}  // namespace af::arch
