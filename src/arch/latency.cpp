#include "arch/latency.h"

#include "util/math.h"
#include "util/status.h"

namespace af::arch {

std::int64_t tile_latency_cycles(int rows, int cols, std::int64_t t, int k) {
  return tile_latency_cycles_asym(rows, cols, t, k, k);
}

std::int64_t tile_latency_cycles_asym(int rows, int cols, std::int64_t t,
                                      int k_v, int k_h) {
  AF_CHECK(rows > 0 && cols > 0, "array dims must be positive");
  AF_CHECK(t > 0, "tile T dimension must be positive, got " << t);
  AF_CHECK(k_v >= 1 && divides(k_v, rows),
           "k_v=" << k_v << " must divide R=" << rows);
  AF_CHECK(k_h >= 1 && divides(k_h, cols),
           "k_h=" << k_h << " must divide C=" << cols);
  // L = R + R/k_v + C/k_h + T - 2   (Eq. 3 when k_v == k_h; Eq. 1 at 1)
  return static_cast<std::int64_t>(rows) + rows / k_v + cols / k_h + t - 2;
}

std::int64_t total_latency_cycles_asym(const gemm::GemmShape& shape,
                                       const ArrayConfig& config, int k_v,
                                       int k_h) {
  return tile_latency_cycles_asym(config.rows, config.cols, shape.t, k_v, k_h) *
         gemm::tile_count(shape, config.rows, config.cols);
}

std::int64_t total_latency_cycles(const gemm::GemmShape& shape,
                                  const ArrayConfig& config, int k) {
  AF_CHECK(config.supports(k), "mode k=" << k << " not supported by array");
  const std::int64_t per_tile =
      tile_latency_cycles(config.rows, config.cols, shape.t, k);
  return per_tile * gemm::tile_count(shape, config.rows, config.cols);
}

double absolute_time_ps(std::int64_t cycles, double period_ps) {
  AF_CHECK(cycles >= 0, "cycle count must be non-negative");
  AF_CHECK(period_ps > 0, "clock period must be positive");
  return static_cast<double>(cycles) * period_ps;
}

}  // namespace af::arch
