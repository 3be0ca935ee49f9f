// The engine facade's contract: the string-keyed factory and builder wire
// backends correctly, and — the load-bearing guarantee — the closed-form
// CostEstimates every engine answers (evaluate, evaluate_sparse) and the
// "analytic" backend's run_gemm are EXACTLY the numbers the "cycle"
// backend's run_gemm measures on real operands, with bit-equal outputs,
// across shapes, modes, occupancies, memory configs, thread counts and
// clock models.  That equivalence is what licenses serve::Server to
// default to analytic serving with sampled cycle-accurate audits (see
// serve_test.cpp for the serving-level audit test).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "arch/clocking.h"
#include "arch/latency.h"
#include "arch/sparse.h"
#include "engine/engine.h"
#include "mem/tile_scheduler.h"
#include "gemm/reference.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace af::engine {
namespace {

arch::ArrayConfig config_for(int rows, int cols, int num_threads = 1) {
  arch::ArrayConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.supported_k = {1};
  for (const int k : {2, 3, 4, 8}) {
    if (rows % k == 0 && cols % k == 0) cfg.supported_k.push_back(k);
  }
  cfg.sim.num_threads = num_threads;
  cfg.validate();
  return cfg;
}

void expect_costs_exactly_equal(const CostEstimate& got,
                                const CostEstimate& want,
                                const std::string& label) {
  EXPECT_EQ(got.k, want.k) << label;
  EXPECT_EQ(got.cycles, want.cycles) << label;
  EXPECT_EQ(got.period_ps, want.period_ps) << label;
  EXPECT_EQ(got.time_ps, want.time_ps) << label;
  EXPECT_EQ(got.energy_pj, want.energy_pj) << label;
  EXPECT_EQ(got.stall_cycles, want.stall_cycles) << label;
  EXPECT_EQ(got.dram_bytes, want.dram_bytes) << label;
  EXPECT_EQ(got.spad_peak_bytes, want.spad_peak_bytes) << label;
  EXPECT_EQ(got.activity.mult_ops, want.activity.mult_ops) << label;
  EXPECT_EQ(got.activity.csa_ops, want.activity.csa_ops) << label;
  EXPECT_EQ(got.activity.cpa_ops, want.activity.cpa_ops) << label;
  EXPECT_EQ(got.activity.hreg_writes, want.activity.hreg_writes) << label;
  EXPECT_EQ(got.activity.vreg_writes, want.activity.vreg_writes) << label;
  EXPECT_EQ(got.activity.wreg_writes, want.activity.wreg_writes) << label;
  EXPECT_EQ(got.activity.acc_writes, want.activity.acc_writes) << label;
  EXPECT_EQ(got.activity.hreg_bypassed_bit_cycles,
            want.activity.hreg_bypassed_bit_cycles)
      << label;
  EXPECT_EQ(got.activity.vreg_bypassed_bit_cycles,
            want.activity.vreg_bypassed_bit_cycles)
      << label;
  EXPECT_EQ(got.activity.streaming_cycles, want.activity.streaming_cycles)
      << label;
  EXPECT_TRUE(exactly_equal(got, want)) << label;
}

// A random weight matrix whose R x C tile occupancy is exactly
// `occupancy`: random values in the occupied tiles (each tile's top-left
// entry forced non-zero), zeros everywhere else.
gemm::Mat32 weights_with_occupancy(Rng& rng, const gemm::GemmShape& shape,
                                   const arch::TileOccupancy& occupancy,
                                   int rows, int cols) {
  gemm::Mat32 b = gemm::random_matrix(rng, shape.n, shape.m, -50, 50);
  for (std::int64_t r = 0; r < shape.n; ++r) {
    for (std::int64_t c = 0; c < shape.m; ++c) {
      const bool occupied = occupancy.is_nonzero(r / rows, c / cols);
      if (!occupied) {
        b.at(r, c) = 0;
      } else if (r % rows == 0 && c % cols == 0) {
        b.at(r, c) = static_cast<std::int32_t>(rng.next_in(1, 50));
      }
    }
  }
  return b;
}

// The cycle backend's measurement of a GEMM of `shape` in mode k over
// random activations and `sparse_b` with GemmRequest::sparse when given,
// else dense random weights.
RunResult measure(Engine& cycle, Rng& rng, const gemm::GemmShape& shape,
                  int k, const gemm::Mat32* sparse_b = nullptr) {
  const gemm::Mat32 a = gemm::random_matrix(rng, shape.t, shape.n, -50, 50);
  const gemm::Mat32 b =
      sparse_b != nullptr
          ? *sparse_b
          : gemm::random_matrix(rng, shape.n, shape.m, -50, 50);
  const GemmRequest request{&a, &b, k, /*want_output=*/false,
                            /*sparse=*/sparse_b != nullptr};
  return cycle.run_gemm(request);
}

// ---- factory / registry ---------------------------------------------------

TEST(EngineFactoryTest, RegistryListsExactlyTheShippedBackends) {
  const std::vector<std::string> names = registered_backends();
  ASSERT_EQ(names.size(), 3u);
  // Sorted (std::map) — the readme_registries drift check against the
  // README table relies on a stable order.
  EXPECT_EQ(names[0], "analytic");
  EXPECT_EQ(names[1], "chaos");
  EXPECT_EQ(names[2], "cycle");
  for (const std::string& name : names) {
    EXPECT_FALSE(backend_description(name).empty()) << name;
  }
}

TEST(EngineFactoryTest, MakeResolvesNamesAndRejectsUnknown) {
  EngineBuilder builder;
  builder.square(8);
  const std::shared_ptr<Engine> analytic = make("analytic", builder);
  const std::shared_ptr<Engine> cycle = make("cycle", builder);
  EXPECT_EQ(analytic->name(), "analytic");
  EXPECT_EQ(cycle->name(), "cycle");
  EXPECT_FALSE(analytic->measures());
  EXPECT_TRUE(cycle->measures());
  EXPECT_THROW(make("rtl", builder), Error);
  EXPECT_THROW(backend_description("rtl"), Error);
}

TEST(EngineBuilderTest, DefaultsAndFluentWiring) {
  auto engine = EngineBuilder().square(16).build("analytic");
  EXPECT_EQ(engine->config().rows, 16);
  EXPECT_EQ(engine->config().cols, 16);
  EXPECT_EQ(engine->config().supported_k, (std::vector<int>{1, 2, 4}));
  // The default clock is the paper's DATE-23 calibration.
  const arch::CalibratedClockModel date23 =
      arch::CalibratedClockModel::date23();
  for (const int k : {1, 2, 4}) {
    EXPECT_EQ(engine->clock().period_ps(k), date23.period_ps(k)) << k;
  }
  EXPECT_EQ(engine->pool(), nullptr);  // serial by default

  auto threaded =
      EngineBuilder().square(16).threads(2).build("cycle");
  ASSERT_NE(threaded->pool(), nullptr);
  EXPECT_EQ(threaded->pool()->size(), 2);

  util::ThreadPool shared(2);
  auto injected =
      EngineBuilder().square(16).shared_pool(&shared).build("cycle");
  EXPECT_EQ(injected->pool(), &shared);
}

// ---- the backend-equivalence contract -------------------------------------

TEST(EngineEquivalenceTest, RandomizedSweepCostsAndOutputsExactlyAgree) {
  Rng rng(20260401);
  const std::vector<int> sides = {4, 6, 8, 12, 16};
  for (int iter = 0; iter < 25; ++iter) {
    const int rows = sides[rng.next_below(sides.size())];
    const int cols = sides[rng.next_below(sides.size())];
    const arch::ArrayConfig cfg = config_for(rows, cols);
    EngineBuilder builder;
    builder.config(cfg);
    auto analytic = builder.build("analytic");
    auto cycle = builder.build("cycle");

    const gemm::GemmShape shape{rng.next_in(1, 40), rng.next_in(1, 40),
                                rng.next_in(1, 24)};
    const int k = cfg.supported_k[rng.next_below(cfg.supported_k.size())];
    const std::string label =
        "R=" + std::to_string(rows) + " C=" + std::to_string(cols) +
        " M=" + std::to_string(shape.m) + " N=" + std::to_string(shape.n) +
        " T=" + std::to_string(shape.t) + " k=" + std::to_string(k);

    // run_gemm: outputs bit-equal to the reference and to each other, and
    // the measured cost is exactly the closed form's and the analytic
    // run's.
    const gemm::Mat32 a =
        gemm::random_matrix(rng, shape.t, shape.n, -1000, 1000);
    const gemm::Mat32 b =
        gemm::random_matrix(rng, shape.n, shape.m, -1000, 1000);
    GemmRequest request;
    request.a = &a;
    request.b = &b;
    request.k = k;
    const RunResult fast = analytic->run_gemm(request);
    const RunResult exact = cycle->run_gemm(request);
    EXPECT_FALSE(fast.measured);
    EXPECT_TRUE(exact.measured);
    ASSERT_TRUE(fast.out.has_value()) << label;
    ASSERT_TRUE(exact.out.has_value()) << label;
    const gemm::Mat64 want = gemm::reference_gemm(a, b);
    EXPECT_EQ(gemm::first_mismatch(*fast.out, want), "") << label;
    EXPECT_EQ(gemm::first_mismatch(*exact.out, want), "") << label;
    expect_costs_exactly_equal(analytic->evaluate(shape, k), exact.cost,
                               label + " evaluate");
    expect_costs_exactly_equal(fast.cost, exact.cost, label + " run");
  }
}

TEST(EngineEquivalenceTest, BlockSparseRequestsExactlyAgreeAcrossBackends) {
  // GemmRequest::sparse routes "cycle" through run_gemm_sparse and
  // "analytic" through sparse_total_latency_cycles + per-tile counters —
  // and the facade contract holds there too: EXACTLY equal costs, outputs
  // bit-identical to the dense reference (skipped all-zero tiles
  // contribute nothing).
  Rng rng(6060);
  const std::vector<int> sides = {4, 6, 8};
  for (int iter = 0; iter < 10; ++iter) {
    const int rows = sides[rng.next_below(sides.size())];
    const int cols = sides[rng.next_below(sides.size())];
    const arch::ArrayConfig cfg = config_for(rows, cols);
    EngineBuilder builder;
    builder.config(cfg);
    auto analytic = builder.build("analytic");
    auto cycle = builder.build("cycle");

    const gemm::GemmShape shape{rng.next_in(1, 40), rng.next_in(1, 40),
                                rng.next_in(1, 16)};
    const int k = cfg.supported_k[rng.next_below(cfg.supported_k.size())];
    const gemm::Mat32 a =
        gemm::random_matrix(rng, shape.t, shape.n, -200, 200);
    gemm::Mat32 b = gemm::random_matrix(rng, shape.n, shape.m, -200, 200);
    // Zero out ~60% of the R x C weight tiles (the granularity the
    // sequencer skips at), keeping at least one tile non-zero.
    for (std::int64_t r0 = 0; r0 < shape.n; r0 += rows) {
      for (std::int64_t c0 = 0; c0 < shape.m; c0 += cols) {
        if (rng.next_double() >= 0.6) continue;
        for (std::int64_t r = r0; r < std::min<std::int64_t>(r0 + rows, shape.n);
             ++r) {
          for (std::int64_t c = c0;
               c < std::min<std::int64_t>(c0 + cols, shape.m); ++c) {
            b.at(r, c) = 0;
          }
        }
      }
    }
    if (arch::TileOccupancy::from_matrix(b, rows, cols).nonzero_tiles() == 0) {
      b.at(0, 0) = 1;
    }
    const std::string label =
        "R=" + std::to_string(rows) + " C=" + std::to_string(cols) +
        " M=" + std::to_string(shape.m) + " N=" + std::to_string(shape.n) +
        " T=" + std::to_string(shape.t) + " k=" + std::to_string(k);

    GemmRequest request;
    request.a = &a;
    request.b = &b;
    request.k = k;
    request.sparse = true;
    const RunResult fast = analytic->run_gemm(request);
    const RunResult exact = cycle->run_gemm(request);
    EXPECT_FALSE(fast.measured);
    EXPECT_TRUE(exact.measured);
    expect_costs_exactly_equal(fast.cost, exact.cost, label + " sparse");

    const gemm::Mat64 want = gemm::reference_gemm(a, b);
    ASSERT_TRUE(fast.out.has_value()) << label;
    ASSERT_TRUE(exact.out.has_value()) << label;
    EXPECT_EQ(gemm::first_mismatch(*fast.out, want), "") << label;
    EXPECT_EQ(gemm::first_mismatch(*exact.out, want), "") << label;

    // Skipping tiles can only make the run cheaper, never change it.
    request.sparse = false;
    const RunResult dense = analytic->run_gemm(request);
    EXPECT_LE(fast.cost.cycles, dense.cost.cycles) << label;
    EXPECT_LE(fast.cost.energy_pj, dense.cost.energy_pj) << label;
  }
}

TEST(EngineEquivalenceTest, EvaluateSparseMatchesMeasuredSparseRunsExactly) {
  // evaluate_sparse prices a block-sparse GEMM from the occupancy alone —
  // no weight matrix.  The contract: for a weight matrix OF that
  // occupancy, its CostEstimate is EXACTLY what the cycle backend's
  // run_gemm with GemmRequest::sparse measures, including every activity
  // counter (skipped tiles contribute nothing anywhere).
  Rng rng(6565);
  const std::vector<int> sides = {4, 6, 8};
  for (int iter = 0; iter < 10; ++iter) {
    const int rows = sides[rng.next_below(sides.size())];
    const int cols = sides[rng.next_below(sides.size())];
    const arch::ArrayConfig cfg = config_for(rows, cols);
    EngineBuilder builder;
    builder.config(cfg);
    auto analytic = builder.build("analytic");
    auto cycle = builder.build("cycle");

    const gemm::GemmShape shape{rng.next_in(1, 40), rng.next_in(1, 40),
                                rng.next_in(1, 16)};
    const int k = cfg.supported_k[rng.next_below(cfg.supported_k.size())];
    const gemm::Mat32 a = gemm::random_matrix(rng, shape.t, shape.n, -50, 50);
    gemm::Mat32 b = gemm::random_matrix(rng, shape.n, shape.m, -50, 50);
    for (std::int64_t r0 = 0; r0 < shape.n; r0 += rows) {
      for (std::int64_t c0 = 0; c0 < shape.m; c0 += cols) {
        if (rng.next_double() >= 0.5) continue;
        for (std::int64_t r = r0; r < std::min<std::int64_t>(r0 + rows, shape.n);
             ++r) {
          for (std::int64_t c = c0;
               c < std::min<std::int64_t>(c0 + cols, shape.m); ++c) {
            b.at(r, c) = 0;
          }
        }
      }
    }
    if (arch::TileOccupancy::from_matrix(b, rows, cols).nonzero_tiles() == 0) {
      b.at(0, 0) = 1;
    }
    const arch::TileOccupancy occupancy =
        arch::TileOccupancy::from_matrix(b, rows, cols);
    const std::string label =
        "R=" + std::to_string(rows) + " C=" + std::to_string(cols) +
        " M=" + std::to_string(shape.m) + " N=" + std::to_string(shape.n) +
        " T=" + std::to_string(shape.t) + " k=" + std::to_string(k);

    GemmRequest request;
    request.a = &a;
    request.b = &b;
    request.k = k;
    request.sparse = true;
    request.want_output = false;
    const RunResult measured = cycle->run_gemm(request);
    expect_costs_exactly_equal(analytic->evaluate_sparse(shape, k, occupancy),
                               measured.cost, label);
  }

  // k = 0: the run resolves the same Eq. 6 argmin as evaluate_sparse, and
  // the measured sparse run over a matrix of that occupancy agrees.
  EngineBuilder builder;
  builder.square(8);
  auto analytic = builder.build("analytic");
  auto cycle = builder.build("cycle");
  const gemm::GemmShape shape{24, 32, 8};
  const arch::TileOccupancy half =
      arch::TileOccupancy::synthetic(shape, 8, 8, 0.5, rng);
  const gemm::Mat32 b = weights_with_occupancy(rng, shape, half, 8, 8);
  ASSERT_EQ(arch::TileOccupancy::from_matrix(b, 8, 8).nonzero_tiles(),
            half.nonzero_tiles());
  const CostEstimate fast = analytic->evaluate_sparse(shape, 0, half);
  const RunResult exact = measure(*cycle, rng, shape, 0, &b);
  EXPECT_EQ(fast.k, exact.cost.k);
  expect_costs_exactly_equal(fast, exact.cost, "sparse argmin");

  // An occupancy gridded for a different array or shape is a loud
  // kInvalidArgument, not a silent misprice.
  const arch::TileOccupancy wrong =
      arch::TileOccupancy::synthetic({8, 8, 8}, 8, 8, 0.5, rng);
  EXPECT_THROW(analytic->evaluate_sparse(shape, 1, wrong), Error);
}

TEST(EngineEquivalenceTest, ModeZeroPicksTheSameArgminOnBothBackends) {
  EngineBuilder builder;
  builder.square(8);
  auto analytic = builder.build("analytic");
  auto cycle = builder.build("cycle");
  Rng rng(5150);
  for (int iter = 0; iter < 8; ++iter) {
    const gemm::GemmShape shape{rng.next_in(1, 64), rng.next_in(1, 64),
                                rng.next_in(1, 64)};
    // A k = 0 run resolves the argmin the same way evaluate(shape, 0)
    // does, and measures exactly its cost.
    const CostEstimate fast = analytic->evaluate(shape, 0);
    const RunResult exact = measure(*cycle, rng, shape, 0);
    EXPECT_EQ(fast.k, exact.cost.k);
    EXPECT_EQ(fast.k, analytic->optimizer().best_mode(shape).k);
    expect_costs_exactly_equal(fast, exact.cost, "argmin shape");
  }
}

// ---- memory hierarchy -----------------------------------------------------

TEST(EngineMemoryTest, RandomizedMemoryConfigSweepExactlyAgrees) {
  // The facade contract extended over the memory hierarchy: for every
  // (spad x bandwidth x latency x reuse x k) draw — dense and sparse —
  // the closed form and the cycle-accurate run_gemm measurement finalize
  // through the same mem::TileScheduler plan and must agree EXACTLY on
  // cycles, stalls, traffic, footprint and energy.
  Rng rng(20260808);
  const std::vector<int> sides = {4, 8, 16};
  const std::vector<std::int64_t> bandwidths = {1, 4, 16, 64};
  const std::vector<std::int64_t> latencies = {0, 8, 100};
  const std::vector<arch::ReuseStrategy> strategies = {
      arch::ReuseStrategy::kAuto, arch::ReuseStrategy::kAStationary,
      arch::ReuseStrategy::kBStationary,
      arch::ReuseStrategy::kOutputStationary};
  for (int iter = 0; iter < 20; ++iter) {
    const int side = sides[rng.next_below(sides.size())];
    arch::ArrayConfig cfg = config_for(side, side);
    cfg.mem.enabled = true;
    cfg.mem.dram_bytes_per_cycle =
        bandwidths[rng.next_below(bandwidths.size())];
    cfg.mem.dram_latency_cycles = latencies[rng.next_below(latencies.size())];
    cfg.mem.reuse = strategies[rng.next_below(strategies.size())];
    const gemm::GemmShape shape{rng.next_in(1, 40), rng.next_in(1, 40),
                                rng.next_in(1, 24)};
    // Random scratchpad, always feasible for the drawn strategy: between
    // the strategy's minimum and 8x it.
    cfg.mem.spad_bytes = 1;
    const std::int64_t min_spad =
        mem::TileScheduler(cfg).min_spad_bytes(shape, cfg.mem.reuse);
    cfg.mem.spad_bytes = min_spad * rng.next_in(1, 8) + rng.next_in(0, 64);

    EngineBuilder builder;
    builder.config(cfg);
    auto analytic = builder.build("analytic");
    auto cycle = builder.build("cycle");
    const int k = cfg.supported_k[rng.next_below(cfg.supported_k.size())];
    const std::string label =
        std::to_string(side) + "x" + std::to_string(side) + " M=" +
        std::to_string(shape.m) + " N=" + std::to_string(shape.n) + " T=" +
        std::to_string(shape.t) + " k=" + std::to_string(k) + " " +
        cfg.mem.to_string();

    const CostEstimate fast = analytic->evaluate(shape, k);
    EXPECT_GT(fast.dram_bytes, 0) << label;
    EXPECT_GT(fast.spad_peak_bytes, 0) << label;
    EXPECT_LE(fast.spad_peak_bytes, cfg.mem.spad_bytes) << label;
    EXPECT_GE(fast.stall_cycles, 0) << label;
    // cycles is the full makespan: compute plus the reported stalls.
    EXPECT_EQ(fast.cycles - fast.stall_cycles,
              arch::total_latency_cycles(shape, cfg, k))
        << label;

    // run_gemm under memory: same costs, outputs still bit-exact.
    const gemm::Mat32 a =
        gemm::random_matrix(rng, shape.t, shape.n, -100, 100);
    const gemm::Mat32 b =
        gemm::random_matrix(rng, shape.n, shape.m, -100, 100);
    GemmRequest request;
    request.a = &a;
    request.b = &b;
    request.k = k;
    const RunResult fast_run = analytic->run_gemm(request);
    const RunResult exact_run = cycle->run_gemm(request);
    expect_costs_exactly_equal(fast, exact_run.cost, label);
    expect_costs_exactly_equal(fast_run.cost, exact_run.cost, label + " run");
    ASSERT_TRUE(fast_run.out.has_value() && exact_run.out.has_value());
    EXPECT_EQ(gemm::first_mismatch(*fast_run.out, *exact_run.out), "")
        << label;

    // Sparse: skipped tiles move no bytes either, priced and measured.
    const arch::TileOccupancy occupancy =
        arch::TileOccupancy::synthetic(shape, side, side, 0.5, rng);
    const gemm::Mat32 sparse_b =
        weights_with_occupancy(rng, shape, occupancy, side, side);
    const CostEstimate fast_sparse =
        analytic->evaluate_sparse(shape, k, occupancy);
    expect_costs_exactly_equal(fast_sparse,
                               measure(*cycle, rng, shape, k, &sparse_b).cost,
                               label + " sparse");
    EXPECT_LE(fast_sparse.dram_bytes, fast.dram_bytes) << label;
  }
}

TEST(EngineMemoryTest, DisabledMemoryConfigIsBitIdenticalToTheClosedForm) {
  // The magic-memory regression pin: a default (disabled) MemoryConfig
  // must reproduce the seed's numbers exactly — same cycles and energy as
  // the raw Eq. 4 + from_counters pricing, all memory fields zero.
  EngineBuilder builder;
  builder.square(8);
  auto engine = builder.build("analytic");
  auto cycle = builder.build("cycle");
  ASSERT_FALSE(engine->config().mem.enabled);
  const gemm::GemmShape shape{24, 20, 12};
  Rng rng(12);
  for (const int k : engine->config().supported_k) {
    // The closed form and the measured run, each held to the raw pricing.
    for (const CostEstimate& est :
         {engine->evaluate(shape, k), measure(*cycle, rng, shape, k).cost}) {
      EXPECT_EQ(est.stall_cycles, 0) << k;
      EXPECT_EQ(est.dram_bytes, 0) << k;
      EXPECT_EQ(est.spad_peak_bytes, 0) << k;
      EXPECT_EQ(est.cycles,
                arch::total_latency_cycles(shape, engine->config(), k))
          << k;
      const arch::PowerResult want = engine->power().from_counters(
          est.activity, est.cycles, est.period_ps, true, k);
      EXPECT_EQ(est.energy_pj, want.energy_pj) << k;
      EXPECT_EQ(est.time_ps, want.time_ps) << k;
    }
  }
}

TEST(EngineMemoryTest, BandwidthStarvedConfigStallsEndToEnd) {
  // Below the ridge point the array is DMA-bound: halving bandwidth must
  // grow the stall count, and generous bandwidth must shrink it — with the
  // DRAM traffic itself invariant (bandwidth changes WHEN bytes move, not
  // HOW MANY).
  const gemm::GemmShape shape{32, 32, 16};
  std::int64_t previous_cycles = -1;
  std::int64_t dram_bytes = -1;
  Rng rng(32);
  for (const std::int64_t bw : {1, 4, 16, 256}) {
    arch::ArrayConfig cfg = config_for(8, 8);
    cfg.mem.enabled = true;
    cfg.mem.dram_bytes_per_cycle = bw;
    cfg.mem.dram_latency_cycles = 8;
    auto engine = EngineBuilder().config(cfg).build("cycle");
    const CostEstimate est = measure(*engine, rng, shape, 2).cost;
    EXPECT_GT(est.stall_cycles, 0) << "bw=" << bw;
    if (previous_cycles >= 0) EXPECT_LT(est.cycles, previous_cycles);
    if (dram_bytes >= 0) EXPECT_EQ(est.dram_bytes, dram_bytes);
    previous_cycles = est.cycles;
    dram_bytes = est.dram_bytes;
  }
  // At 1 byte/cycle the DMA stream dominates: the makespan is within one
  // transfer's latency of the pure streaming time, far above compute.
  arch::ArrayConfig starved = config_for(8, 8);
  starved.mem.enabled = true;
  starved.mem.dram_bytes_per_cycle = 1;
  starved.mem.dram_latency_cycles = 0;
  auto engine = EngineBuilder().config(starved).build("analytic");
  const CostEstimate est = engine->evaluate(shape, 2);
  EXPECT_GE(est.cycles, est.dram_bytes);
}

TEST(EngineMemoryTest, ChaosBackendForwardsMemoryFields) {
  arch::ArrayConfig cfg = config_for(8, 8);
  cfg.mem.enabled = true;
  EngineBuilder builder;
  builder.config(cfg);
  auto chaos = builder.build("chaos");  // fault-free analytic wrapper
  auto analytic = builder.build("analytic");
  Rng rng(16);
  const gemm::Mat32 a = gemm::random_matrix(rng, 8, 16, -9, 9);
  const gemm::Mat32 b = gemm::random_matrix(rng, 16, 16, -9, 9);
  GemmRequest request;
  request.a = &a;
  request.b = &b;
  request.k = 2;
  const RunResult got = chaos->run_gemm(request);
  EXPECT_GT(got.cost.dram_bytes, 0);
  expect_costs_exactly_equal(got.cost, analytic->run_gemm(request).cost,
                             "chaos passthrough");
}

TEST(EngineTest, WantOutputFalseSkipsTheProductButNotTheCost) {
  EngineBuilder builder;
  builder.square(8);
  Rng rng(3);
  const gemm::Mat32 a = gemm::random_matrix(rng, 6, 10, -50, 50);
  const gemm::Mat32 b = gemm::random_matrix(rng, 10, 12, -50, 50);
  for (const std::string& backend : registered_backends()) {
    auto engine = builder.build(backend);
    GemmRequest request;
    request.a = &a;
    request.b = &b;
    request.k = 2;
    request.want_output = false;
    const RunResult cost_only = engine->run_gemm(request);
    EXPECT_FALSE(cost_only.out.has_value()) << backend;
    request.want_output = true;
    const RunResult full = engine->run_gemm(request);
    ASSERT_TRUE(full.out.has_value()) << backend;
    expect_costs_exactly_equal(cost_only.cost, full.cost,
                               backend + " want_output");
    EXPECT_GT(cost_only.cost.cycles, 0) << backend;
    EXPECT_GT(cost_only.cost.energy_pj, 0.0) << backend;
  }
}

TEST(EngineTest, ThreadedCycleEngineBitIdenticalToSerial) {
  Rng rng(99);
  const gemm::Mat32 a = gemm::random_matrix(rng, 9, 20, -100, 100);
  const gemm::Mat32 b = gemm::random_matrix(rng, 20, 40, -100, 100);
  GemmRequest request;
  request.a = &a;
  request.b = &b;
  request.k = 2;
  auto serial = EngineBuilder().config(config_for(4, 4, 1)).build("cycle");
  auto threaded = EngineBuilder().config(config_for(4, 4, 4)).build("cycle");
  const RunResult s = serial->run_gemm(request);
  const RunResult t = threaded->run_gemm(request);
  ASSERT_TRUE(s.out.has_value() && t.out.has_value());
  EXPECT_EQ(gemm::first_mismatch(*t.out, *s.out), "");
  expect_costs_exactly_equal(t.cost, s.cost, "threads");
}

// The process's thread count from /proc/self/status once two reads 5 ms
// apart agree (threads joined by an earlier test may still be leaving the
// thread group), or -1 without /proc.
int settled_thread_count() {
  const auto read = [] {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
    }
    return -1;
  };
  int last = read();
  for (int i = 0; i < 100 && last >= 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const int now = read();
    if (now == last) break;
    last = now;
  }
  return last;
}

// The engine is the only pool owner: a 4-thread "cycle" engine starts one
// pool (3 workers plus the caller), the same as an "analytic" one — its
// SystolicArray runs on that pool instead of building a second.
TEST(EngineTest, ThreadedCycleEngineStartsOnePool) {
  const int before = settled_thread_count();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status";
  auto engine = EngineBuilder().square(16).threads(4).build("cycle");
  EXPECT_EQ(settled_thread_count() - before, 3);
}

TEST(EngineTest, CustomClockChangesPricingIdenticallyOnBothBackends) {
  // Same cycles under any clock; time/energy follow the period — and stay
  // exactly equal across backends under a non-default model too.
  const auto clock = std::make_shared<arch::AnalyticClockModel>(
      arch::AnalyticClockModel::paper_fit());
  EngineBuilder builder;
  builder.square(8).clock(clock);
  auto analytic = builder.build("analytic");
  auto cycle = builder.build("cycle");
  const gemm::GemmShape shape{24, 16, 10};
  Rng rng(10);
  for (const int k : {1, 2, 4}) {
    const CostEstimate fast = analytic->evaluate(shape, k);
    expect_costs_exactly_equal(fast, measure(*cycle, rng, shape, k).cost,
                               "paper_fit k=" + std::to_string(k));
    EXPECT_EQ(fast.period_ps, clock->period_ps(k));
  }
}

}  // namespace
}  // namespace af::engine
