#include "gemm/tiling.h"

#include "util/math.h"
#include "util/status.h"

namespace af::gemm {

std::int64_t tile_count(const GemmShape& shape, std::int64_t rows,
                        std::int64_t cols) {
  AF_CHECK(rows > 0 && cols > 0, "tile dimensions must be positive");
  return ceil_div(shape.n, rows) * ceil_div(shape.m, cols);
}

}  // namespace af::gemm
