// Pipeline-depth optimizer: Eq. 6 argmin, Eq. 7 closed form, and the
// paper's Fig. 5 / Section III-C mode predictions.

#include <gtest/gtest.h>

#include "arch/latency.h"
#include "arch/optimizer.h"

namespace af::arch {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest()
      : clock_(CalibratedClockModel::date23()),
        cfg128_(ArrayConfig::square(128)),
        opt128_(cfg128_, clock_) {}

  CalibratedClockModel clock_;
  ArrayConfig cfg128_;
  PipelineOptimizer opt128_;
};

TEST_F(OptimizerTest, EvaluateComputesEq6) {
  const gemm::GemmShape shape{256, 2304, 196};
  const ModeDecision d = opt128_.evaluate(shape, 2);
  EXPECT_EQ(d.k, 2);
  EXPECT_EQ(d.cycles, total_latency_cycles(shape, cfg128_, 2));
  EXPECT_DOUBLE_EQ(d.period_ps, clock_.period_ps(2));
  EXPECT_DOUBLE_EQ(d.time_ps, static_cast<double>(d.cycles) * d.period_ps);
}

TEST_F(OptimizerTest, BestModeIsArgmin) {
  const gemm::GemmShape shape{512, 2304, 49};
  const ModeDecision best = opt128_.best_mode(shape);
  for (const int k : cfg128_.supported_k) {
    EXPECT_LE(best.time_ps, opt128_.evaluate(shape, k).time_ps) << "k=" << k;
  }
}

TEST_F(OptimizerTest, SweepFlagsExactlyOneWinner) {
  const auto sweep = opt128_.sweep({256, 2304, 196});
  int winners = 0;
  for (const auto& entry : sweep) winners += entry.is_best ? 1 : 0;
  EXPECT_EQ(winners, 1);
  EXPECT_EQ(sweep.size(), cfg128_.supported_k.size());
}

TEST_F(OptimizerTest, LargeTPrefersNormalPipeline) {
  // Section III-C: early CNN layers (large T) are best served by k = 1.
  const ModeDecision d = opt128_.best_mode({96, 48, 3136});
  EXPECT_EQ(d.k, 1);
  EXPECT_LT(opt128_.continuous_k_hat({96, 48, 3136}), 1.5);
}

TEST_F(OptimizerTest, SmallTPrefersDeepCollapse) {
  // Late layers (small T) want the deepest collapse.
  const ModeDecision d = opt128_.best_mode({768, 3072, 49});
  EXPECT_EQ(d.k, 4);
  EXPECT_GT(opt128_.continuous_k_hat({768, 3072, 49}), 2.0);
}

TEST_F(OptimizerTest, KHatDecreasesWithT) {
  double prev = 1e9;
  for (const std::int64_t t : {16, 49, 196, 784, 3136, 12544}) {
    const double k_hat = opt128_.continuous_k_hat({128, 128, t});
    EXPECT_LT(k_hat, prev);
    prev = k_hat;
  }
}

TEST_F(OptimizerTest, KHatGrowsWithArraySize) {
  // Fig. 8 discussion: larger arrays push more layers to deeper collapse —
  // Eq. 7 "predicts higher values for k-hat when the size of the SA
  // increases".
  const ArrayConfig cfg256 = ArrayConfig::square(256);
  const PipelineOptimizer opt256(cfg256, clock_);
  for (const std::int64_t t : {49, 196, 784}) {
    EXPECT_GT(opt256.continuous_k_hat({128, 128, t}),
              opt128_.continuous_k_hat({128, 128, t}))
        << "T=" << t;
  }
}

TEST_F(OptimizerTest, RoundedKHatPicksNearestSupportedMode) {
  // k-hat around 1.6 rounds to 2; around 3.2 rounds to 4 (3 unsupported).
  const int k_small_t = opt128_.rounded_k_hat({512, 512, 49});
  EXPECT_EQ(k_small_t, 4);
  const int k_large_t = opt128_.rounded_k_hat({96, 48, 12544});
  EXPECT_EQ(k_large_t, 1);
}

TEST_F(OptimizerTest, RoundedKHatTracksDiscreteArgmin) {
  // The paper: "the best pipeline organization per CNN layer is approximated
  // fairly accurately ... by Equation (7)".  Across the T range the two
  // disagree on at most the boundary shapes; never by more than one step in
  // the supported-mode ladder.
  const std::vector<int>& modes = cfg128_.supported_k;
  for (const std::int64_t t :
       {16, 32, 49, 100, 196, 400, 784, 1600, 3136, 12544}) {
    const gemm::GemmShape shape{256, 1024, t};
    const int exact = opt128_.best_mode(shape).k;
    const int approx = opt128_.rounded_k_hat(shape);
    int pos_exact = -1, pos_approx = -1;
    for (std::size_t i = 0; i < modes.size(); ++i) {
      if (modes[i] == exact) pos_exact = static_cast<int>(i);
      if (modes[i] == approx) pos_approx = static_cast<int>(i);
    }
    EXPECT_LE(std::abs(pos_exact - pos_approx), 1) << "T=" << t;
  }
}

TEST_F(OptimizerTest, ConventionalUsesFasterClock) {
  const gemm::GemmShape shape{256, 2304, 196};
  const ModeDecision conv = opt128_.conventional(shape);
  EXPECT_EQ(conv.k, 1);
  EXPECT_DOUBLE_EQ(conv.period_ps, clock_.conventional_period_ps());
  EXPECT_EQ(conv.cycles, opt128_.evaluate(shape, 1).cycles);
  EXPECT_LT(conv.time_ps, opt128_.evaluate(shape, 1).time_ps);
}

// --- Fig. 5 geometry: 132x132 with k in {1,2,3,4} --------------------------

class Fig5Optimizer : public ::testing::Test {
 protected:
  Fig5Optimizer()
      : clock_(AnalyticClockModel::paper_fit()),
        cfg_(ArrayConfig::square_with_modes(132, {1, 2, 3, 4})),
        opt_(cfg_, clock_) {}

  AnalyticClockModel clock_;
  ArrayConfig cfg_;
  PipelineOptimizer opt_;
};

TEST_F(Fig5Optimizer, Layer20ShallowBeatsNormalAndConventional) {
  // ResNet-34 layer 20: (M,N,T) = (256, 2304, 196).  Fig. 5(a): shallow
  // modes beat both the normal pipeline and the conventional SA; k = 2 and
  // k = 3 are near-tied at the minimum (DESIGN.md documents the tie).
  const gemm::GemmShape shape{256, 2304, 196};
  const ModeDecision best = opt_.best_mode(shape);
  EXPECT_GE(best.k, 2);
  EXPECT_LE(best.k, 3);
  EXPECT_LT(best.time_ps, opt_.evaluate(shape, 1).time_ps);
  EXPECT_LT(best.time_ps, opt_.conventional(shape).time_ps);
  // k = 2 and k = 3 within 2% of each other (the paper's plotted near-tie).
  const double t2 = opt_.evaluate(shape, 2).time_ps;
  const double t3 = opt_.evaluate(shape, 3).time_ps;
  EXPECT_NEAR(t2 / t3, 1.0, 0.02);
}

TEST_F(Fig5Optimizer, Layer28PrefersDeepestCollapse) {
  // ResNet-34 layer 28: (M,N,T) = (512, 2304, 49).  Fig. 5(b): k = 4 wins.
  const gemm::GemmShape shape{512, 2304, 49};
  EXPECT_EQ(opt_.best_mode(shape).k, 4);
  EXPECT_LT(opt_.best_mode(shape).time_ps, opt_.conventional(shape).time_ps);
}

TEST_F(Fig5Optimizer, DiminishingReturnsPastTheOptimum) {
  // Fig. 5(a): collapsing deeper than the optimum still beats the
  // conventional SA but the savings shrink.
  const gemm::GemmShape shape{256, 2304, 196};
  const double conv = opt_.conventional(shape).time_ps;
  const double t3 = opt_.evaluate(shape, 3).time_ps;
  const double t4 = opt_.evaluate(shape, 4).time_ps;
  EXPECT_LT(t4, conv);
  EXPECT_GT(t4, t3);
}

}  // namespace
}  // namespace af::arch
