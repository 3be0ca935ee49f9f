// Tiled execution of a GEMM whose spatial dimensions exceed the array
// (paper Fig. 1(c) and Eq. 2): the N dimension is cut into ⌈N/R⌉ row tiles
// and M into ⌈M/C⌉ column tiles; partial sums accumulate in the output
// accumulators below the array.  The walks over those tiles live with
// their users: SystolicArray::run_tiled (arch/array.h) and
// mem::TileScheduler (mem/tile_scheduler.h).

#pragma once

#include "gemm/reference.h"

namespace af::gemm {

// Number of tiles per Eq. 2/4: ⌈N/R⌉ x ⌈M/C⌉.
std::int64_t tile_count(const GemmShape& shape, std::int64_t rows,
                        std::int64_t cols);

}  // namespace af::gemm
