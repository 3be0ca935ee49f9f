// Optimized-engine equivalence sweep: the vectorized, optionally threaded
// streaming engine (arch/array.cpp) pitted against
//   * the reference GEMM (bit-exact outputs, including modular wrap),
//   * the closed-form activity model (identical ActivityCounters), and
//   * itself at different thread counts (threaded == serial, bit for bit).
// Randomized over (R, C, k_v, k_h, T, threads, dense/sparse) so an engine
// regression cannot hide behind one lucky geometry.

#include <gtest/gtest.h>

#include "arch/activity.h"
#include "arch/array.h"
#include "arch/latency.h"
#include "arch/sparse.h"
#include "engine/engine.h"
#include "gemm/reference.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace af::arch {
namespace {

ArrayConfig config_for(int rows, int cols) {
  ArrayConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.supported_k = {1};
  for (const int k : {2, 3, 4, 8}) {
    if (rows % k == 0 && cols % k == 0) cfg.supported_k.push_back(k);
  }
  cfg.validate();
  return cfg;
}

std::vector<int> divisors_of(int n, const std::vector<int>& candidates) {
  std::vector<int> out;
  for (const int k : candidates) {
    if (n % k == 0) out.push_back(k);
  }
  return out;
}

void expect_counters_equal(const ActivityCounters& got,
                           const ActivityCounters& want,
                           const std::string& label) {
  EXPECT_EQ(got.mult_ops, want.mult_ops) << label;
  EXPECT_EQ(got.csa_ops, want.csa_ops) << label;
  EXPECT_EQ(got.cpa_ops, want.cpa_ops) << label;
  EXPECT_EQ(got.hreg_writes, want.hreg_writes) << label;
  EXPECT_EQ(got.vreg_writes, want.vreg_writes) << label;
  EXPECT_EQ(got.wreg_writes, want.wreg_writes) << label;
  EXPECT_EQ(got.acc_writes, want.acc_writes) << label;
  EXPECT_EQ(got.hreg_bypassed_bit_cycles, want.hreg_bypassed_bit_cycles)
      << label;
  EXPECT_EQ(got.vreg_bypassed_bit_cycles, want.vreg_bypassed_bit_cycles)
      << label;
  EXPECT_EQ(got.streaming_cycles, want.streaming_cycles) << label;
}

// ---- asymmetric tile runs vs. reference GEMM + analytical counters --------

TEST(EquivalenceSweep, RandomAsymTilesMatchReferenceAndActivityModel) {
  Rng rng(20260728);
  const std::vector<int> sides = {2, 3, 4, 6, 8, 12, 16};
  const std::vector<int> k_candidates = {1, 2, 3, 4, 6, 8};
  for (int iter = 0; iter < 60; ++iter) {
    const int rows = sides[rng.next_below(sides.size())];
    const int cols = sides[rng.next_below(sides.size())];
    const auto kvs = divisors_of(rows, k_candidates);
    const auto khs = divisors_of(cols, k_candidates);
    const int k_v = kvs[rng.next_below(kvs.size())];
    const int k_h = khs[rng.next_below(khs.size())];
    const std::int64_t t = rng.next_in(1, 40);
    const std::string label = "R=" + std::to_string(rows) +
                              " C=" + std::to_string(cols) +
                              " k_v=" + std::to_string(k_v) +
                              " k_h=" + std::to_string(k_h) +
                              " T=" + std::to_string(t);

    const ArrayConfig cfg = config_for(rows, cols);
    SystolicArray array(cfg);
    const gemm::Mat32 a = gemm::random_matrix(rng, t, rows, -1000, 1000);
    const gemm::Mat32 b = gemm::random_matrix(rng, rows, cols, -1000, 1000);

    gemm::Mat64 acc(t, cols);
    const TileRunStats stats = array.run_tile_asym(a, b, k_v, k_h, &acc);

    EXPECT_EQ(gemm::first_mismatch(acc, gemm::reference_gemm(a, b)), "")
        << label;
    expect_counters_equal(stats.activity,
                          predict_tile_activity_asym(cfg, t, k_v, k_h), label);
    EXPECT_EQ(stats.preload_cycles, rows) << label;
    EXPECT_EQ(stats.total_cycles,
              rows + t + rows / k_v + cols / k_h - 2)
        << label;
  }
}

TEST(EquivalenceSweep, WrapAroundStaysBitExact) {
  // INT32 extremes force 64-bit wrap in the reduction chain; the streaming
  // engine's modular accumulation must wrap exactly like the CSA+CPA model.
  const ArrayConfig cfg = config_for(8, 8);
  SystolicArray array(cfg);
  gemm::Mat32 a(16, 8, INT32_MAX);
  gemm::Mat32 b(8, 8, INT32_MIN);
  for (const int k_v : {1, 2, 8}) {
    for (const int k_h : {1, 4}) {
      gemm::Mat64 acc(16, 8);
      array.run_tile_asym(a, b, k_v, k_h, &acc);
      EXPECT_EQ(gemm::first_mismatch(acc, gemm::reference_gemm(a, b)), "")
          << "k_v=" << k_v << " k_h=" << k_h;
    }
  }
}

// The geometry the benchmark simulates (32x32) and wider ones: every sweep
// above stops at 16x16.
TEST(EquivalenceSweep, WideArraysMatchReferenceAndActivityModel) {
  Rng rng(20261017);
  for (const auto& [rows, cols] :
       std::vector<std::pair<int, int>>{{32, 32}, {64, 64}, {32, 48}}) {
    const ArrayConfig cfg = config_for(rows, cols);
    SystolicArray array(cfg);
    const auto check = [&](const gemm::Mat32& a, const gemm::Mat32& b, int k_v,
                           int k_h) {
      const std::int64_t t = a.rows();
      const std::string label = "R=" + std::to_string(rows) +
                                " C=" + std::to_string(cols) +
                                " k_v=" + std::to_string(k_v) +
                                " k_h=" + std::to_string(k_h) +
                                " T=" + std::to_string(t);
      gemm::Mat64 acc(t, cols);
      const TileRunStats stats = array.run_tile_asym(a, b, k_v, k_h, &acc);
      EXPECT_EQ(gemm::first_mismatch(acc, gemm::reference_gemm(a, b)), "")
          << label;
      expect_counters_equal(stats.activity,
                            predict_tile_activity_asym(cfg, t, k_v, k_h),
                            label);
      EXPECT_EQ(stats.total_cycles, rows + rows / k_v + cols / k_h + t - 2)
          << label;
    };
    for (const int k_v : {1, 2, 4}) {
      for (const int k_h : {1, 2, 4}) {
        for (const std::int64_t t : {1, 33, 100}) {
          check(gemm::random_matrix(rng, t, rows, INT32_MIN, INT32_MAX),
                gemm::random_matrix(rng, rows, cols, INT32_MIN, INT32_MAX), k_v,
                k_h);
        }
      }
    }
    check(gemm::Mat32(33, rows, INT32_MAX), gemm::Mat32(rows, cols, INT32_MIN),
          1, 1);
  }
}

// ---- threaded tiled GEMM: dense and sparse, vs. serial and reference ------

TEST(EquivalenceSweep, ThreadedGemmBitIdenticalToSerial) {
  Rng rng(42);
  for (int iter = 0; iter < 10; ++iter) {
    const int side = 4 * static_cast<int>(rng.next_in(1, 3));  // 4, 8, 12
    const std::int64_t m = rng.next_in(1, 40);
    const std::int64_t n = rng.next_in(1, 40);
    const std::int64_t t = rng.next_in(1, 20);
    const int k = (side % 4 == 0) ? 4 : 2;
    const std::string label = "side=" + std::to_string(side) +
                              " M=" + std::to_string(m) +
                              " N=" + std::to_string(n) +
                              " T=" + std::to_string(t);

    const gemm::Mat32 a = gemm::random_matrix(rng, t, n, -100, 100);
    const gemm::Mat32 b = gemm::random_matrix(rng, n, m, -100, 100);
    const gemm::Mat64 x = gemm::reference_gemm(a, b);

    gemm::Mat64 serial_out;
    SystolicArray serial_array(config_for(side, side));
    const TileRunStats serial = serial_array.run_gemm(a, b, k, &serial_out);
    EXPECT_EQ(gemm::first_mismatch(serial_out, x), "") << label;

    const gemm::GemmShape shape{m, n, t};
    expect_counters_equal(serial.activity,
                          predict_gemm_activity(shape, config_for(side, side), k),
                          label);
    EXPECT_EQ(serial.total_cycles, total_latency_cycles(shape, config_for(side, side), k))
        << label;

    for (const int threads : {2, 4}) {
      gemm::Mat64 out;
      util::ThreadPool pool(threads);
      SystolicArray array(config_for(side, side), &pool);
      const TileRunStats stats = array.run_gemm(a, b, k, &out);
      EXPECT_EQ(gemm::first_mismatch(out, serial_out), "")
          << label << " threads=" << threads;
      EXPECT_EQ(stats.total_cycles, serial.total_cycles)
          << label << " threads=" << threads;
      expect_counters_equal(stats.activity, serial.activity,
                            label + " threads=" + std::to_string(threads));
    }
  }
}

TEST(EquivalenceSweep, ThreadedSparseGemmSkipsZeroTilesIdentically) {
  Rng rng(77);
  for (int iter = 0; iter < 6; ++iter) {
    const int side = 4;
    const std::int64_t m = rng.next_in(8, 32);
    const std::int64_t n = rng.next_in(8, 32);
    const std::int64_t t = rng.next_in(1, 12);
    gemm::Mat32 a = gemm::random_matrix(rng, t, n, -50, 50);
    gemm::Mat32 b = gemm::random_matrix(rng, n, m, -50, 50);
    // Zero out ~half of the R x C weight tiles.
    for (std::int64_t n0 = 0; n0 < n; n0 += side) {
      for (std::int64_t m0 = 0; m0 < m; m0 += side) {
        if (rng.next_double() < 0.5) continue;
        for (std::int64_t r = n0; r < std::min<std::int64_t>(n, n0 + side); ++r) {
          for (std::int64_t c = m0; c < std::min<std::int64_t>(m, m0 + side);
               ++c) {
            b.at(r, c) = 0;
          }
        }
      }
    }
    const gemm::Mat64 x = gemm::reference_gemm(a, b);
    const std::string label = "M=" + std::to_string(m) +
                              " N=" + std::to_string(n) +
                              " T=" + std::to_string(t);

    gemm::Mat64 serial_out;
    SystolicArray serial_array(config_for(side, side));
    const TileRunStats serial =
        serial_array.run_gemm_sparse(a, b, 2, &serial_out);
    EXPECT_EQ(gemm::first_mismatch(serial_out, x), "") << label;
    const TileOccupancy occ = TileOccupancy::from_matrix(b, side, side);
    const gemm::GemmShape shape{m, n, t};
    EXPECT_EQ(serial.total_cycles,
              sparse_total_latency_cycles(shape, config_for(side, side), 2, occ))
        << label;

    gemm::Mat64 threaded_out;
    util::ThreadPool pool(4);
    SystolicArray threaded_array(config_for(side, side), &pool);
    const TileRunStats threaded =
        threaded_array.run_gemm_sparse(a, b, 2, &threaded_out);
    EXPECT_EQ(gemm::first_mismatch(threaded_out, serial_out), "") << label;
    EXPECT_EQ(threaded.total_cycles, serial.total_cycles) << label;
    expect_counters_equal(threaded.activity, serial.activity, label);
  }
}

// ---- engine facade: closed-form predictions vs cycle-accurate measurement --

// The engine-level restatement of this file's contract: behind the
// engine::Engine facade, the closed-form cycle / activity / energy
// predictions (evaluate) must land EXACTLY on what the "cycle" backend's
// run_gemm measures on random operands, across shapes and symmetric modes
// k (asymmetric (k_v, k_h) pairs are pinned tile by tile above).  This is
// the equivalence that lets the serving layer answer cost traffic
// analytically and spot-check with cycle-accurate audits.
TEST(EquivalenceSweep, EngineBackendsAgreeOnCyclesActivityAndEnergy) {
  Rng rng(414243);
  const std::vector<int> sides = {2, 4, 6, 8, 12, 16};
  for (int iter = 0; iter < 30; ++iter) {
    const int rows = sides[rng.next_below(sides.size())];
    const int cols = sides[rng.next_below(sides.size())];
    const ArrayConfig cfg = config_for(rows, cols);
    engine::EngineBuilder builder;
    builder.config(cfg);
    auto analytic = builder.build("analytic");
    auto cycle = builder.build("cycle");

    // Full tiled GEMM in a random supported symmetric mode.
    const gemm::GemmShape shape{rng.next_in(1, 48), rng.next_in(1, 48),
                                rng.next_in(1, 24)};
    const int k = cfg.supported_k[rng.next_below(cfg.supported_k.size())];
    const std::string label = "R=" + std::to_string(rows) +
                              " C=" + std::to_string(cols) +
                              " k=" + std::to_string(k);
    const gemm::Mat32 a =
        gemm::random_matrix(rng, shape.t, shape.n, -1000, 1000);
    const gemm::Mat32 b =
        gemm::random_matrix(rng, shape.n, shape.m, -1000, 1000);
    engine::GemmRequest request;
    request.a = &a;
    request.b = &b;
    request.k = k;
    request.want_output = false;
    const engine::CostEstimate predicted = analytic->evaluate(shape, k);
    const engine::CostEstimate measured = cycle->run_gemm(request).cost;
    EXPECT_EQ(predicted.cycles, measured.cycles) << label;
    EXPECT_EQ(predicted.energy_pj, measured.energy_pj) << label;
    expect_counters_equal(predicted.activity, measured.activity, label);
    EXPECT_TRUE(engine::exactly_equal(predicted, measured)) << label;
  }
}

// A pool of every hardware thread (num_threads = 0) must behave like any
// other thread count: identical results, no crashes on 1-core hosts.
TEST(EquivalenceSweep, AutoThreadCountMatchesSerial) {
  Rng rng(5);
  const gemm::Mat32 a = gemm::random_matrix(rng, 9, 17, -100, 100);
  const gemm::Mat32 b = gemm::random_matrix(rng, 17, 23, -100, 100);
  gemm::Mat64 serial_out, auto_out;
  util::ThreadPool pool(util::ThreadPool::resolve_num_threads(0));
  SystolicArray serial_array(config_for(4, 4));
  SystolicArray auto_array(config_for(4, 4), &pool);
  const TileRunStats s = serial_array.run_gemm(a, b, 2, &serial_out);
  const TileRunStats p = auto_array.run_gemm(a, b, 2, &auto_out);
  EXPECT_EQ(gemm::first_mismatch(auto_out, serial_out), "");
  EXPECT_EQ(p.total_cycles, s.total_cycles);
  expect_counters_equal(p.activity, s.activity, "auto threads");
}

}  // namespace
}  // namespace af::arch
