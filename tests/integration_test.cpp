// Cross-module integration: a real convolution lowered through im2col,
// executed cycle-accurately on the array in every mode, compared against
// direct convolution; the quantized float path; STA-driven clock model in
// the optimizer; end-to-end Fig. 7-style run with the STA model.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "arch/array.h"
#include "arch/clocking.h"
#include "arch/latency.h"
#include "arch/optimizer.h"
#include "engine/engine.h"
#include "gemm/quantize.h"
#include "gemm/reference.h"
#include "nn/mapper.h"
#include "nn/models.h"
#include "nn/runner.h"
#include "util/rng.h"

namespace af {
namespace {

TEST(IntegrationTest, ConvLayerThroughArrayMatchesDirectConv) {
  // 3x3 conv, 4 -> 6 channels, 8x8 input, stride 1, pad 1, run on an 8x8
  // array in modes 1, 2 and 4 (tiled: N = 36 -> 5 tiles, M = 6 -> 1 tile).
  const nn::Layer layer = nn::Layer::conv("c", 4, 6, 3, 1, 1, 8, 8);
  Rng rng(99);
  const gemm::Mat32 input = gemm::random_matrix(rng, 4, 64, -30, 30);
  const gemm::Mat32 weights = gemm::random_matrix(rng, 6, 36, -30, 30);

  const gemm::Mat32 a = nn::im2col(layer, input);
  const gemm::Mat32 b = nn::weights_to_matrix(layer, weights);
  const gemm::Mat64 direct = nn::direct_conv(layer, input, weights);

  arch::ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  cfg.supported_k = {1, 2, 4};
  cfg.validate();
  arch::SystolicArray array(cfg);

  for (const int k : {1, 2, 4}) {
    gemm::Mat64 out;
    const arch::TileRunStats stats = array.run_gemm(a, b, k, &out);
    const gemm::GemmShape shape = nn::gemm_shape(layer);
    EXPECT_EQ(stats.total_cycles,
              arch::total_latency_cycles(shape, cfg, k))
        << "k=" << k;
    for (std::int64_t t = 0; t < shape.t; ++t) {
      for (std::int64_t m = 0; m < shape.m; ++m) {
        ASSERT_EQ(out.at(t, m), direct.at(m, t)) << "k=" << k;
      }
    }
  }
}

TEST(IntegrationTest, QuantizedFloatConvWithinQuantizationError) {
  // Float activations/weights, symmetric 16-bit quantization, integer GEMM
  // on the array, dequantize, compare against float math.
  const nn::Layer layer = nn::Layer::conv("q", 2, 3, 3, 1, 1, 6, 6);
  Rng rng(123);
  std::vector<float> input_f(2 * 36);
  std::vector<float> weight_f(3 * 18);
  for (auto& v : input_f) v = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  for (auto& v : weight_f) v = static_cast<float>(rng.next_double() * 0.5 - 0.25);

  const gemm::QuantParams qa = gemm::choose_symmetric_scale(input_f, 16);
  const gemm::QuantParams qw = gemm::choose_symmetric_scale(weight_f, 16);
  const gemm::Mat32 input_q = gemm::quantize_matrix(input_f, 2, 36, qa);
  const gemm::Mat32 weight_q = gemm::quantize_matrix(weight_f, 3, 18, qw);

  const gemm::Mat32 a = nn::im2col(layer, input_q);
  const gemm::Mat32 b = nn::weights_to_matrix(layer, weight_q);

  arch::ArrayConfig cfg;
  cfg.rows = cfg.cols = 4;
  cfg.supported_k = {1, 2};
  cfg.validate();
  arch::SystolicArray array(cfg);
  gemm::Mat64 out;
  array.run_gemm(a, b, 2, &out);

  // Float reference.
  const auto at_in = [&](int ch, int y, int x) {
    return input_f[static_cast<std::size_t>(ch * 36 + y * 6 + x)];
  };
  double max_err = 0.0;
  for (int oc = 0; oc < 3; ++oc) {
    for (int oy = 0; oy < 6; ++oy) {
      for (int ox = 0; ox < 6; ++ox) {
        double acc = 0.0;
        int widx = 0;
        for (int ch = 0; ch < 2; ++ch) {
          for (int ky = 0; ky < 3; ++ky) {
            for (int kx = 0; kx < 3; ++kx, ++widx) {
              const int iy = oy + ky - 1;
              const int ix = ox + kx - 1;
              if (iy < 0 || iy >= 6 || ix < 0 || ix >= 6) continue;
              acc += static_cast<double>(at_in(ch, iy, ix)) *
                     weight_f[static_cast<std::size_t>(oc * 18 + widx)];
            }
          }
        }
        const double from_array =
            static_cast<double>(out.at(oy * 6 + ox, oc)) * qa.scale * qw.scale;
        max_err = std::max(max_err, std::fabs(from_array - acc));
      }
    }
  }
  // 18 products, each with ~1 LSB of input noise: comfortably below 1e-3 at
  // 16-bit quantization of unit-range data.
  EXPECT_LT(max_err, 1e-3);
}

TEST(IntegrationTest, StaClockModelDrivesOptimizerSensibly) {
  // Wire the gate-level STA clock model into the optimizer: the qualitative
  // mode progression (large T -> k=1, small T -> deep collapse) must hold
  // regardless of which clock model is active.
  const arch::StaClockModel clock(500.0);
  const arch::ArrayConfig cfg = arch::ArrayConfig::square(128);
  const arch::PipelineOptimizer opt(cfg, clock);
  EXPECT_EQ(opt.best_mode({96, 48, 3136}).k, 1);
  EXPECT_GE(opt.best_mode({768, 3072, 49}).k, 2);
  // Monotone k-hat in T, as with the calibrated model.
  EXPECT_GT(opt.continuous_k_hat({128, 128, 49}),
            opt.continuous_k_hat({128, 128, 3136}));
}

TEST(IntegrationTest, EndToEndConvNeXtUnderStaClock) {
  // The Fig. 7/8 pipeline still reproduces the headline result (ArrayFlex
  // saves total execution time) when every clock number comes from our own
  // gate-level timing instead of the paper's table.
  const nn::InferenceRunner runner(
      engine::EngineBuilder()
          .config(arch::ArrayConfig::square(128))
          .clock(std::make_shared<arch::StaClockModel>(500.0))
          .build("analytic"));
  const nn::ModelReport r = runner.run(nn::convnext_tiny());
  const double savings = r.totals().latency_savings();
  EXPECT_GT(savings, 0.05);
  EXPECT_LT(savings, 0.25);
  // Late layers still collapse deepest.
  EXPECT_EQ(r.layers.back().arrayflex.k, 4);
}

TEST(IntegrationTest, SimulatedLayerEnergyMatchesModeledEnergy) {
  // Run a small layer cycle-accurately, price the measured counters, and
  // compare with the closed-form utilization-aware prediction.
  arch::ArrayConfig cfg;
  cfg.rows = cfg.cols = 16;
  cfg.supported_k = {1, 2, 4};
  cfg.validate();
  const arch::CalibratedClockModel clock = arch::CalibratedClockModel::date23();
  const arch::SaPowerModel power(cfg, clock);
  arch::SystolicArray array(cfg);

  Rng rng(7);
  const gemm::GemmShape shape{20, 30, 12};
  const gemm::Mat32 a = gemm::random_matrix(rng, shape.t, shape.n, -40, 40);
  const gemm::Mat32 b = gemm::random_matrix(rng, shape.n, shape.m, -40, 40);

  for (const int k : {1, 2, 4}) {
    gemm::Mat64 out;
    const arch::TileRunStats stats = array.run_gemm(a, b, k, &out);
    const arch::PowerResult measured = power.from_counters(
        stats.activity, stats.total_cycles, clock.period_ps(k), true, k);
    const arch::PowerResult predicted =
        power.arrayflex_utilization_aware(shape, k);
    EXPECT_NEAR(measured.energy_pj / predicted.energy_pj, 1.0, 1e-9)
        << "k=" << k;
  }
}

}  // namespace
}  // namespace af
