#include "arch/activity.h"

#include "util/math.h"
#include "util/status.h"

namespace af::arch {

ActivityCounters predict_tile_activity(const ArrayConfig& config,
                                       std::int64_t t, int k) {
  AF_CHECK(config.supports(k), "mode k=" << k << " not supported");
  return predict_tile_activity_asym(config, t, k, k);
}

ActivityCounters predict_tile_activity_asym(const ArrayConfig& config,
                                            std::int64_t t, int k_v,
                                            int k_h) {
  config.validate();
  AF_CHECK(k_v >= 1 && divides(k_v, config.rows),
           "vertical collapse k_v=" << k_v << " must divide R=" << config.rows);
  AF_CHECK(k_h >= 1 && divides(k_h, config.cols),
           "horizontal collapse k_h=" << k_h
                                      << " must divide C=" << config.cols);
  AF_CHECK(t > 0, "tile T dimension must be positive");

  const std::int64_t rows = config.rows;
  const std::int64_t cols = config.cols;
  const std::int64_t h_groups = cols / k_h;
  const std::int64_t v_groups = rows / k_v;

  ActivityCounters a;
  a.mult_ops = t * rows * cols;
  a.csa_ops = a.mult_ops;
  a.cpa_ops = t * cols * v_groups;
  a.hreg_writes = t * rows * (h_groups - 1);
  a.vreg_writes = t * cols * (v_groups - 1);
  a.acc_writes = t * cols;
  a.wreg_writes = rows * rows * cols;
  a.streaming_cycles = t + v_groups + h_groups - 2;
  a.hreg_bypassed_bit_cycles =
      rows * (cols - h_groups) * config.input_bits * a.streaming_cycles;
  a.vreg_bypassed_bit_cycles =
      cols * (rows - v_groups) * config.acc_bits * a.streaming_cycles;
  return a;
}

ActivityCounters predict_gemm_activity(const gemm::GemmShape& shape,
                                       const ArrayConfig& config, int k) {
  ActivityCounters out = predict_tile_activity(config, shape.t, k);
  out *= gemm::tile_count(shape, config.rows, config.cols);
  return out;
}

}  // namespace af::arch
