// Core architecture units: config validation, Eq. 1-4 latency model, and
// the three clock models.

#include <gtest/gtest.h>

#include "arch/clocking.h"
#include "arch/config.h"
#include "arch/latency.h"

namespace af::arch {
namespace {

// ------------------------------------------------------------------ config

TEST(ConfigTest, DefaultIsValid) {
  ArrayConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_TRUE(cfg.supports(1));
  EXPECT_TRUE(cfg.supports(4));
  EXPECT_FALSE(cfg.supports(3));
  EXPECT_EQ(cfg.max_k(), 4);
  EXPECT_EQ(cfg.num_pes(), 128 * 128);
}

TEST(ConfigTest, KMustDivideGeometry) {
  ArrayConfig cfg;
  cfg.rows = cfg.cols = 128;
  cfg.supported_k = {1, 3};  // 3 does not divide 128 (paper Section IV)
  EXPECT_THROW(cfg.validate(), Error);
  cfg.rows = cfg.cols = 132;  // 132 = 4 * 3 * 11: k = 3 is fine (Fig. 5)
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigTest, NormalModeMandatory) {
  ArrayConfig cfg;
  cfg.supported_k = {2, 4};
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(ConfigTest, SquareFactoryPicksDivisors) {
  const ArrayConfig a = ArrayConfig::square(128);
  EXPECT_EQ(a.supported_k, (std::vector<int>{1, 2, 4}));
  const ArrayConfig b = ArrayConfig::square_with_modes(132, {1, 2, 3, 4});
  EXPECT_TRUE(b.supports(3));
}

TEST(ConfigTest, AccumulatorWidthChecked) {
  ArrayConfig cfg;
  cfg.input_bits = 32;
  cfg.acc_bits = 32;  // must hold a full 64-bit product
  EXPECT_THROW(cfg.validate(), Error);
}

// ----------------------------------------------------------------- latency

TEST(LatencyTest, Eq1NormalPipeline) {
  // L = 2R + C + T - 2 (Eq. 1).
  EXPECT_EQ(tile_latency_cycles(128, 128, 196, 1), 2 * 128 + 128 + 196 - 2);
  EXPECT_EQ(tile_latency_cycles(4, 4, 1, 1), 2 * 4 + 4 + 1 - 2);
}

TEST(LatencyTest, Eq3ShallowPipeline) {
  // L(k) = R + R/k + C/k + T - 2 (Eq. 3).
  EXPECT_EQ(tile_latency_cycles(128, 128, 196, 2), 128 + 64 + 64 + 196 - 2);
  EXPECT_EQ(tile_latency_cycles(128, 128, 196, 4), 128 + 32 + 32 + 196 - 2);
  EXPECT_EQ(tile_latency_cycles(132, 132, 49, 3), 132 + 44 + 44 + 49 - 2);
}

TEST(LatencyTest, Eq3ReducesToEq1AtK1) {
  for (const int r : {4, 8, 64, 128, 132}) {
    for (const std::int64_t t : {1, 7, 100}) {
      EXPECT_EQ(tile_latency_cycles(r, r, t, 1), 2 * r + r + t - 2);
    }
  }
}

TEST(LatencyTest, Eq4TiledTotal) {
  // Paper Fig. 5(a): layer 20 of ResNet-34 on 132x132,
  // (M,N,T) = (256, 2304, 196): 18 x 2 = 36 tiles.
  ArrayConfig cfg = ArrayConfig::square_with_modes(132, {1, 2, 3, 4});
  const gemm::GemmShape shape{256, 2304, 196};
  EXPECT_EQ(total_latency_cycles(shape, cfg, 1),
            36 * tile_latency_cycles(132, 132, 196, 1));
  EXPECT_EQ(total_latency_cycles(shape, cfg, 3),
            36 * tile_latency_cycles(132, 132, 196, 3));
}

TEST(LatencyTest, InvalidArgumentsRejected) {
  EXPECT_THROW(tile_latency_cycles(128, 128, 0, 1), Error);
  EXPECT_THROW(tile_latency_cycles(128, 128, 10, 3), Error);  // 3 ∤ 128
  ArrayConfig cfg;
  EXPECT_THROW(total_latency_cycles({1, 1, 1}, cfg, 3), Error);
  // The asymmetric total checks each depth against its own dimension.
  EXPECT_THROW(total_latency_cycles_asym({1, 1, 1}, cfg, 3, 1), Error);
  EXPECT_THROW(total_latency_cycles_asym({1, 1, 1}, cfg, 1, 3), Error);
}

TEST(LatencyTest, AbsoluteTime) {
  EXPECT_DOUBLE_EQ(absolute_time_ps(1000, 500.0), 5e5);
  EXPECT_THROW(absolute_time_ps(1, 0.0), Error);
}

// ------------------------------------------------------------ clock models

TEST(ClockModelTest, CalibratedMatchesPaperTable) {
  const CalibratedClockModel m = CalibratedClockModel::date23();
  EXPECT_NEAR(m.conventional_frequency_ghz(), 2.0, 1e-9);
  EXPECT_NEAR(m.frequency_ghz(1), 1.8, 1e-9);
  EXPECT_NEAR(m.frequency_ghz(2), 1.7, 1e-9);
  EXPECT_NEAR(m.frequency_ghz(4), 1.4, 1e-9);
}

TEST(ClockModelTest, CalibratedInterpolatesK3Monotonically) {
  const CalibratedClockModel m = CalibratedClockModel::date23();
  EXPECT_GT(m.period_ps(3), m.period_ps(2));
  EXPECT_LT(m.period_ps(3), m.period_ps(4));
}

TEST(ClockModelTest, CalibratedEq7Coefficients) {
  const CalibratedClockModel m = CalibratedClockModel::date23();
  // Secant through (1, 555.6) and (4, 714.3): ~52.9 ps per collapse stage.
  EXPECT_NEAR(m.collapse_delay_ps(), 52.9, 0.5);
  EXPECT_NEAR(m.base_delay_ps(), 502.7, 1.0);
}

TEST(ClockModelTest, AnalyticFollowsEq5Exactly) {
  DelayProfile p;
  p.d_ff = 75;
  p.d_mul = 300;
  p.d_add = 125;
  p.d_csa = 30;
  p.d_mux = 10;
  const AnalyticClockModel m(p);
  for (const int k : {1, 2, 3, 4, 8}) {
    EXPECT_DOUBLE_EQ(m.period_ps(k), 500.0 + k * 50.0);
  }
  EXPECT_DOUBLE_EQ(m.base_delay_ps(), 500.0);
  EXPECT_DOUBLE_EQ(m.collapse_delay_ps(), 50.0);
}

TEST(ClockModelTest, PaperFitAnchorsPublishedPoints) {
  const AnalyticClockModel m = AnalyticClockModel::paper_fit();
  EXPECT_NEAR(m.period_ps(1), 1e3 / 1.8, 1.0);
  EXPECT_NEAR(m.period_ps(4), 1e3 / 1.4, 1.0);
  EXPECT_DOUBLE_EQ(m.conventional_period_ps(), 500.0);
}

TEST(ClockModelTest, CalibrationPointValidation) {
  EXPECT_THROW(CalibratedClockModel(500.0, {{1, 555.6}}), Error);
  EXPECT_THROW(CalibratedClockModel(0.0, {{1, 555.6}, {2, 588.2}}), Error);
  // Non-monotone points (period shrinking with k) rejected via secant check.
  EXPECT_THROW(CalibratedClockModel(500.0, {{1, 600.0}, {4, 500.0}}), Error);
}

TEST(ClockModelTest, StaModelAnchorsAndOrders) {
  const StaClockModel m(500.0);
  EXPECT_DOUBLE_EQ(m.conventional_period_ps(), 500.0);
  // ArrayFlex normal mode is slower than conventional but within 25%.
  EXPECT_GT(m.period_ps(1), 500.0);
  EXPECT_LT(m.period_ps(1), 625.0);
  EXPECT_LT(m.period_ps(1), m.period_ps(2));
  EXPECT_LT(m.period_ps(2), m.period_ps(4));
  // Eq. 7 coefficients are consistent with the periods.
  EXPECT_NEAR(m.base_delay_ps() + m.collapse_delay_ps(), m.period_ps(1), 1e-6);
}

TEST(ClockModelTest, StaWithinToleranceOfPaperTable) {
  // The structural model and the silicon table agree within ~12% on every
  // published point (DESIGN.md documents the comparison).
  const StaClockModel sta(500.0);
  const CalibratedClockModel cal = CalibratedClockModel::date23();
  for (const int k : {1, 2, 4}) {
    const double rel = sta.period_ps(k) / cal.period_ps(k);
    EXPECT_GT(rel, 0.85) << "k=" << k;
    EXPECT_LT(rel, 1.15) << "k=" << k;
  }
}

}  // namespace
}  // namespace af::arch
