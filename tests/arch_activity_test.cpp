// The closed-form activity model (arch/activity.h) pinned counter-by-counter
// against the cycle-accurate simulator — the license for using closed forms
// in the full-CNN benches.

#include <gtest/gtest.h>

#include "arch/activity.h"
#include "arch/array.h"
#include "gemm/matrix.h"
#include "util/rng.h"

namespace af::arch {
namespace {

ArrayConfig make_config(int rows, int cols, int k) {
  ArrayConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.supported_k = {1};
  if (k != 1) cfg.supported_k.push_back(k);
  cfg.validate();
  return cfg;
}

struct ActivityCase {
  int rows;
  int cols;
  int k;
  std::int64_t t;
};

std::string case_name(const ::testing::TestParamInfo<ActivityCase>& info) {
  return "R" + std::to_string(info.param.rows) + "C" +
         std::to_string(info.param.cols) + "k" + std::to_string(info.param.k) +
         "T" + std::to_string(info.param.t);
}

class ActivitySweep : public ::testing::TestWithParam<ActivityCase> {};

TEST_P(ActivitySweep, SimulatorMatchesClosedFormExactly) {
  const auto [rows, cols, k, t] = GetParam();
  const ArrayConfig cfg = make_config(rows, cols, k);
  SystolicArray array(cfg);
  Rng rng(static_cast<std::uint64_t>(rows + cols * 13 + k * 171 + t * 7));
  const gemm::Mat32 a = gemm::random_matrix(rng, t, rows, -99, 99);
  const gemm::Mat32 b = gemm::random_matrix(rng, rows, cols, -99, 99);
  gemm::Mat64 acc(t, cols);
  const TileRunStats stats = array.run_tile(a, b, k, &acc);
  const ActivityCounters expect = predict_tile_activity(cfg, t, k);

  EXPECT_EQ(stats.activity.mult_ops, expect.mult_ops);
  EXPECT_EQ(stats.activity.csa_ops, expect.csa_ops);
  EXPECT_EQ(stats.activity.cpa_ops, expect.cpa_ops);
  EXPECT_EQ(stats.activity.hreg_writes, expect.hreg_writes);
  EXPECT_EQ(stats.activity.vreg_writes, expect.vreg_writes);
  EXPECT_EQ(stats.activity.wreg_writes, expect.wreg_writes);
  EXPECT_EQ(stats.activity.acc_writes, expect.acc_writes);
  EXPECT_EQ(stats.activity.streaming_cycles, expect.streaming_cycles);
  EXPECT_EQ(stats.activity.hreg_bypassed_bit_cycles,
            expect.hreg_bypassed_bit_cycles);
  EXPECT_EQ(stats.activity.vreg_bypassed_bit_cycles,
            expect.vreg_bypassed_bit_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ActivitySweep,
    ::testing::Values(ActivityCase{4, 4, 1, 1}, ActivityCase{4, 4, 1, 9},
                      ActivityCase{8, 8, 1, 20}, ActivityCase{4, 4, 2, 5},
                      ActivityCase{8, 8, 2, 13}, ActivityCase{16, 8, 2, 7},
                      ActivityCase{6, 6, 3, 4}, ActivityCase{12, 12, 3, 10},
                      ActivityCase{8, 8, 4, 11}, ActivityCase{16, 16, 4, 3},
                      ActivityCase{8, 8, 8, 6}),
    case_name);

TEST(ActivityTest, GemmScalesByTileCount) {
  const ArrayConfig cfg = make_config(8, 8, 2);
  const gemm::GemmShape shape{20, 20, 5};  // 3 x 3 = 9 tiles
  const ActivityCounters tile = predict_tile_activity(cfg, 5, 2);
  const ActivityCounters total = predict_gemm_activity(shape, cfg, 2);
  EXPECT_EQ(total.mult_ops, 9 * tile.mult_ops);
  EXPECT_EQ(total.streaming_cycles, 9 * tile.streaming_cycles);
  EXPECT_EQ(total.acc_writes, 9 * tile.acc_writes);
}

TEST(ActivityTest, TiledSimulationMatchesGemmPrediction) {
  const ArrayConfig cfg = make_config(8, 8, 4);
  SystolicArray array(cfg);
  Rng rng(8);
  const gemm::GemmShape shape{11, 19, 6};
  const gemm::Mat32 a = gemm::random_matrix(rng, shape.t, shape.n, -50, 50);
  const gemm::Mat32 b = gemm::random_matrix(rng, shape.n, shape.m, -50, 50);
  gemm::Mat64 out;
  const TileRunStats stats = array.run_gemm(a, b, 4, &out);
  const ActivityCounters expect = predict_gemm_activity(shape, cfg, 4);
  EXPECT_EQ(stats.activity.mult_ops, expect.mult_ops);
  EXPECT_EQ(stats.activity.cpa_ops, expect.cpa_ops);
  EXPECT_EQ(stats.activity.hreg_writes, expect.hreg_writes);
  EXPECT_EQ(stats.activity.vreg_writes, expect.vreg_writes);
  EXPECT_EQ(stats.activity.streaming_cycles, expect.streaming_cycles);
}

TEST(ActivityTest, CollapseReducesResolutionWork) {
  // Doubling k halves CPA resolutions and boundary-register traffic — the
  // power mechanism of shallow mode in one assertion.
  const ArrayConfig cfg = make_config(16, 16, 2);
  ArrayConfig cfg4 = cfg;
  cfg4.supported_k = {1, 4};
  const ActivityCounters a1 = predict_tile_activity(cfg, 10, 1);
  const ActivityCounters a2 = predict_tile_activity(cfg, 10, 2);
  const ActivityCounters a4 = predict_tile_activity(cfg4, 10, 4);
  EXPECT_EQ(a1.cpa_ops, 2 * a2.cpa_ops);
  EXPECT_EQ(a2.cpa_ops, 2 * a4.cpa_ops);
  EXPECT_EQ(a1.mult_ops, a2.mult_ops);  // MAC work is mode-independent
  EXPECT_EQ(a1.hreg_bypassed_bit_cycles, 0);
  // Per streaming cycle, deeper collapse gates more register bits.
  EXPECT_GT(a4.hreg_bypassed_bit_cycles / a4.streaming_cycles,
            a2.hreg_bypassed_bit_cycles / a2.streaming_cycles);
  EXPECT_GT(a4.vreg_bypassed_bit_cycles / a4.streaming_cycles,
            a2.vreg_bypassed_bit_cycles / a2.streaming_cycles);
}

TEST(ActivityTest, InvalidModeRejected) {
  const ArrayConfig cfg = make_config(8, 8, 2);
  EXPECT_THROW(predict_tile_activity(cfg, 10, 4), Error);
  EXPECT_THROW(predict_tile_activity(cfg, 0, 1), Error);
  // 3 divides neither dimension of the 8x8 array.
  EXPECT_THROW(predict_tile_activity_asym(cfg, 10, 3, 1), Error);
  EXPECT_THROW(predict_tile_activity_asym(cfg, 10, 1, 3), Error);
}

}  // namespace
}  // namespace af::arch
