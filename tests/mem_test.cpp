// Unit tests for the scratchpad/DRAM memory hierarchy (src/mem/):
// MemoryModel transfer timing, TileScheduler reuse strategies, DMA
// double-buffering behavior, feasibility errors, sparse traffic skipping,
// the serving-side traffic projection, two randomized sweeps holding
// TileScheduler::plan to a transfer-list oracle (reference_plan), and the
// recorded plans of named paper layers.  The
// cross-backend equivalence of the engine-integrated path lives in
// tests/engine_test.cpp (EngineMemoryTest suite).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "arch/sparse.h"
#include "mem/memory_model.h"
#include "mem/tile_scheduler.h"
#include "util/rng.h"
#include "util/status.h"

namespace af::mem {
namespace {

arch::ArrayConfig mem_config(int side, std::int64_t spad_bytes,
                             std::int64_t bytes_per_cycle,
                             std::int64_t latency,
                             arch::ReuseStrategy reuse) {
  arch::ArrayConfig cfg;
  cfg.rows = side;
  cfg.cols = side;
  cfg.supported_k = {1, 2, 4};
  cfg.mem.enabled = true;
  cfg.mem.spad_bytes = spad_bytes;
  cfg.mem.dram_bytes_per_cycle = bytes_per_cycle;
  cfg.mem.dram_latency_cycles = latency;
  cfg.mem.reuse = reuse;
  cfg.validate();
  return cfg;
}

// ---- the planner's oracle -------------------------------------------------
//
// A deliberately naive planner: list every DMA transfer in issue order,
// each with the visit whose compute waits for it and the visit whose
// compute must finish before it may start, then re-time compute and the
// in-order channel over the whole list.  TileScheduler::plan must match
// it field for field, the way gemm::multiply must match reference_gemm.

struct RefTransfer {
  std::int64_t bytes = 0;
  std::int64_t consumer = -1;     // executed visit waiting on completion
  std::int64_t after_visit = -1;  // executed visit that must finish first
  bool write = false;
};

struct RefGroup {
  std::int64_t key = 0;
  std::vector<std::int64_t> members;  // executed inner indices, in order
  std::int64_t first = 0;             // global visit index of members[0]
  std::int64_t last = 0;              // ... and of members.back()
};

MemoryPlan reference_plan_one(const TileScheduler& scheduler,
                              const arch::ArrayConfig& config,
                              const gemm::GemmShape& shape,
                              arch::ReuseStrategy strategy,
                              std::int64_t per_tile_cycles,
                              const arch::TileOccupancy* occupancy) {
  const MemoryModel& model = scheduler.model();
  const std::int64_t rows = config.rows;
  const std::int64_t cols = config.cols;
  const std::int64_t row_tiles = (shape.n + rows - 1) / rows;
  const std::int64_t col_tiles = (shape.m + cols - 1) / cols;
  const std::int64_t in_b = model.input_bytes();
  const std::int64_t acc_b = model.acc_bytes();
  const auto n_ext = [&](std::int64_t i) {
    return std::min(rows, shape.n - i * rows);
  };
  const auto m_ext = [&](std::int64_t j) {
    return std::min(cols, shape.m - j * cols);
  };
  const auto a_bytes = [&](std::int64_t i) { return shape.t * n_ext(i) * in_b; };
  const auto b_bytes = [&](std::int64_t i, std::int64_t j) {
    return n_ext(i) * m_ext(j) * in_b;
  };
  const auto c_bytes = [&](std::int64_t j) { return shape.t * m_ext(j) * acc_b; };
  const auto is_executed = [&](std::int64_t i, std::int64_t j) {
    return occupancy == nullptr || occupancy->is_nonzero(i, j);
  };

  const bool m_outer = strategy != arch::ReuseStrategy::kAStationary;
  std::vector<RefGroup> groups;
  std::int64_t visits = 0;
  for (std::int64_t outer = 0; outer < (m_outer ? col_tiles : row_tiles);
       ++outer) {
    RefGroup g;
    g.key = outer;
    for (std::int64_t inner = 0; inner < (m_outer ? row_tiles : col_tiles);
         ++inner) {
      const std::int64_t i = m_outer ? inner : outer;
      const std::int64_t j = m_outer ? outer : inner;
      if (is_executed(i, j)) g.members.push_back(inner);
    }
    if (g.members.empty()) continue;
    g.first = visits;
    visits += static_cast<std::int64_t>(g.members.size());
    g.last = visits - 1;
    groups.push_back(std::move(g));
  }

  MemoryPlan out;
  out.strategy = strategy;
  if (visits == 0) return out;

  const std::int64_t resident_bytes =
      2 * shape.t * std::min(rows, shape.n) * in_b +
      2 * std::min(rows, shape.n) * std::min(cols, shape.m) * in_b +
      shape.t * shape.m * acc_b;
  const bool resident_c = strategy == arch::ReuseStrategy::kAStationary &&
                          resident_bytes <= config.mem.spad_bytes;
  out.spad_peak_bytes = resident_c ? resident_bytes
                                   : scheduler.min_spad_bytes(shape, strategy);

  std::vector<RefTransfer> transfers;
  const std::int64_t num_groups = static_cast<std::int64_t>(groups.size());
  if (m_outer) {
    const auto group_b_bytes = [&](const RefGroup& g) {
      std::int64_t total = 0;
      for (const std::int64_t i : g.members) total += b_bytes(i, g.key);
      return total;
    };
    std::int64_t v = 0;
    for (std::int64_t gi = 0; gi < num_groups; ++gi) {
      const RefGroup& g = groups[gi];
      if (strategy == arch::ReuseStrategy::kBStationary && gi == 0) {
        transfers.push_back({group_b_bytes(g), g.first, -1, false});
      }
      for (const std::int64_t i : g.members) {
        transfers.push_back({a_bytes(i), v, v - 2, false});
        if (strategy == arch::ReuseStrategy::kOutputStationary) {
          transfers.push_back({b_bytes(i, g.key), v, v - 2, false});
        }
        ++v;
      }
      if (strategy == arch::ReuseStrategy::kBStationary && gi + 1 < num_groups) {
        transfers.push_back({group_b_bytes(groups[gi + 1]),
                             groups[gi + 1].first,
                             gi >= 1 ? groups[gi - 1].last : -1, false});
      }
      transfers.push_back({c_bytes(g.key),
                           gi + 1 < num_groups ? groups[gi + 1].first : -1,
                           g.last, true});
    }
  } else {
    std::vector<std::int64_t> last_visit_of_col(col_tiles, -1);
    std::int64_t v = 0;
    for (std::int64_t gi = 0; gi < num_groups; ++gi) {
      const RefGroup& g = groups[gi];
      if (gi == 0) transfers.push_back({a_bytes(g.key), g.first, -1, false});
      for (const std::int64_t j : g.members) {
        transfers.push_back({b_bytes(g.key, j), v, v - 2, false});
        if (!resident_c) {
          if (last_visit_of_col[j] >= 0) {
            transfers.push_back({c_bytes(j), v, v - 2, false});  // reload
          }
          transfers.push_back({c_bytes(j), -1, v, true});  // spill
        }
        last_visit_of_col[j] = v;
        ++v;
      }
      if (gi + 1 < num_groups) {
        transfers.push_back({a_bytes(groups[gi + 1].key),
                             groups[gi + 1].first,
                             gi >= 1 ? groups[gi - 1].last : -1, false});
      }
    }
    if (resident_c) {
      for (std::int64_t j = 0; j < col_tiles; ++j) {
        if (last_visit_of_col[j] >= 0) {
          transfers.push_back({c_bytes(j), -1, last_visit_of_col[j], true});
        }
      }
    }
  }

  // Compute is resolved lazily: visit v's end is computed the first time a
  // transfer waits on it (or at the end), after all its fetches issued.
  std::vector<std::int64_t> ready(static_cast<std::size_t>(visits), 0);
  std::vector<std::int64_t> end(static_cast<std::size_t>(visits), 0);
  std::int64_t dma_free = 0;
  std::int64_t comp_clock = 0;
  std::int64_t next_compute = 0;
  const auto compute_through = [&](std::int64_t u) {
    while (next_compute <= u) {
      comp_clock = std::max(comp_clock,
                            ready[static_cast<std::size_t>(next_compute)]) +
                   per_tile_cycles;
      end[static_cast<std::size_t>(next_compute)] = comp_clock;
      ++next_compute;
    }
  };
  for (const RefTransfer& tr : transfers) {
    std::int64_t start = dma_free;
    if (tr.after_visit >= 0) {
      compute_through(tr.after_visit);
      start = std::max(start, end[static_cast<std::size_t>(tr.after_visit)]);
    }
    dma_free = start + model.transfer_cycles(tr.bytes);
    if (tr.consumer >= 0) {
      std::int64_t& r = ready[static_cast<std::size_t>(tr.consumer)];
      r = std::max(r, dma_free);
    }
    ++out.dma_transfers;
    (tr.write ? out.dram_write_bytes : out.dram_read_bytes) += tr.bytes;
  }
  compute_through(visits - 1);
  out.compute_cycles = per_tile_cycles * visits;
  out.total_cycles = std::max(comp_clock, dma_free);
  out.stall_cycles = out.total_cycles - out.compute_cycles;
  return out;
}

// TileScheduler::plan's contract over reference_plan_one: an all-zero
// occupancy plans nothing, a forced strategy must fit the scratchpad,
// kAuto takes the fewest total cycles (then fewest DRAM bytes) among the
// strategies that fit and throws when none does.
MemoryPlan reference_plan(const arch::ArrayConfig& config,
                          const gemm::GemmShape& shape,
                          std::int64_t per_tile_cycles,
                          const arch::TileOccupancy* occupancy) {
  const TileScheduler scheduler(config);
  const arch::ReuseStrategy want = config.mem.reuse;
  if (occupancy != nullptr && occupancy->nonzero_tiles() == 0) {
    MemoryPlan empty;
    empty.strategy = want == arch::ReuseStrategy::kAuto
                         ? arch::ReuseStrategy::kOutputStationary
                         : want;
    return empty;
  }
  std::optional<MemoryPlan> best;
  for (const arch::ReuseStrategy s : {arch::ReuseStrategy::kAStationary,
                                      arch::ReuseStrategy::kBStationary,
                                      arch::ReuseStrategy::kOutputStationary}) {
    if (want != arch::ReuseStrategy::kAuto && s != want) continue;
    if (scheduler.min_spad_bytes(shape, s) > config.mem.spad_bytes) continue;
    const MemoryPlan p = reference_plan_one(scheduler, config, shape, s,
                                            per_tile_cycles, occupancy);
    if (!best || p.total_cycles < best->total_cycles ||
        (p.total_cycles == best->total_cycles &&
         p.dram_bytes() < best->dram_bytes())) {
      best = p;
    }
  }
  if (!best) throw Error("no reuse strategy fits", ErrorCode::kInvalidArgument);
  return *best;
}

void expect_plans_equal(const MemoryPlan& got, const MemoryPlan& want,
                        const std::string& where) {
  EXPECT_EQ(got.strategy, want.strategy) << where;
  EXPECT_EQ(got.compute_cycles, want.compute_cycles) << where;
  EXPECT_EQ(got.stall_cycles, want.stall_cycles) << where;
  EXPECT_EQ(got.total_cycles, want.total_cycles) << where;
  EXPECT_EQ(got.dram_read_bytes, want.dram_read_bytes) << where;
  EXPECT_EQ(got.dram_write_bytes, want.dram_write_bytes) << where;
  EXPECT_EQ(got.spad_peak_bytes, want.spad_peak_bytes) << where;
  EXPECT_EQ(got.dma_transfers, want.dma_transfers) << where;
}

TEST(MemoryModelTest, TransferCyclesChargeLatencyPlusBandwidth) {
  const arch::ArrayConfig cfg =
      mem_config(8, 1 << 20, 16, 64, arch::ReuseStrategy::kAuto);
  const MemoryModel model(cfg);
  EXPECT_EQ(model.input_bytes(), 4);  // 32-bit operands
  EXPECT_EQ(model.acc_bytes(), 8);    // 64-bit accumulators
  EXPECT_EQ(model.transfer_cycles(1), 64 + 1);
  EXPECT_EQ(model.transfer_cycles(16), 64 + 1);
  EXPECT_EQ(model.transfer_cycles(17), 64 + 2);
  EXPECT_EQ(model.transfer_cycles(1600), 64 + 100);
  EXPECT_THROW(model.transfer_cycles(0), Error);
}

TEST(MemoryModelTest, DisabledConfigRejectsScheduler) {
  arch::ArrayConfig cfg;  // default: magic memory
  EXPECT_THROW(TileScheduler{cfg}, Error);
}

TEST(TileSchedulerTest, OutputStationaryTrafficMatchesTheClosedForm) {
  // 2x3 tile grid on an 8x8 array; 32-bit inputs, 64-bit accumulators.
  // output_stationary reads A once per column group and B once, writes C
  // once: reads = col_tiles * A_bytes + B_bytes, writes = C_bytes.
  const gemm::GemmShape shape{24, 16, 10};  // m=24 (3 groups), n=16, t=10
  const arch::ArrayConfig cfg = mem_config(
      8, 1 << 20, 16, 8, arch::ReuseStrategy::kOutputStationary);
  const TileScheduler scheduler(cfg);
  const MemoryPlan plan = scheduler.plan(shape, /*per_tile_cycles=*/50);
  EXPECT_EQ(plan.strategy, arch::ReuseStrategy::kOutputStationary);
  const std::int64_t a_total = shape.t * shape.n * 4;
  const std::int64_t b_total = shape.n * shape.m * 4;
  const std::int64_t c_total = shape.t * shape.m * 8;
  EXPECT_EQ(plan.dram_read_bytes, 3 * a_total + b_total);
  EXPECT_EQ(plan.dram_write_bytes, c_total);
  EXPECT_EQ(plan.compute_cycles, 50 * 6);
  EXPECT_EQ(plan.total_cycles, plan.compute_cycles + plan.stall_cycles);
}

TEST(TileSchedulerTest, AStationaryResidentOutputMovesEveryByteOnce) {
  // With the whole C resident, a_stationary hits the compulsory-traffic
  // floor: each of A, B, C crosses the DRAM pin exactly once.
  const gemm::GemmShape shape{24, 16, 10};
  const arch::ArrayConfig cfg =
      mem_config(8, 1 << 20, 16, 8, arch::ReuseStrategy::kAStationary);
  const TileScheduler scheduler(cfg);
  const MemoryPlan plan = scheduler.plan(shape, 50);
  EXPECT_EQ(plan.dram_read_bytes, shape.t * shape.n * 4 + shape.n * shape.m * 4);
  EXPECT_EQ(plan.dram_write_bytes, shape.t * shape.m * 8);
  EXPECT_EQ(plan.dram_bytes(), projected_gemm_bytes(shape, cfg));
}

TEST(TileSchedulerTest, AStationarySpillsPartialsWhenOutputDoesNotFit) {
  // Scratchpad big enough for the spill variant but not for a resident C:
  // every revisit of a column group reloads and re-spills the partial.
  const gemm::GemmShape shape{24, 16, 10};
  arch::ArrayConfig cfg =
      mem_config(8, 1 << 20, 16, 8, arch::ReuseStrategy::kAStationary);
  const TileScheduler sized(cfg);
  const std::int64_t min_spad =
      sized.min_spad_bytes(shape, arch::ReuseStrategy::kAStationary);
  cfg.mem.spad_bytes = min_spad;  // fits spill buffers, not the whole C
  const TileScheduler scheduler(cfg);
  const MemoryPlan plan = scheduler.plan(shape, 50);
  const std::int64_t c_total = shape.t * shape.m * 8;
  // 2 row groups: every column group's partial spills twice, reloads once.
  EXPECT_EQ(plan.dram_write_bytes, 2 * c_total);
  EXPECT_EQ(plan.dram_read_bytes,
            shape.t * shape.n * 4 + shape.n * shape.m * 4 + c_total);
}

TEST(TileSchedulerTest, BStationaryMovesSameBytesInFewerTransfers) {
  const gemm::GemmShape shape{32, 32, 12};
  const arch::ArrayConfig os_cfg = mem_config(
      8, 1 << 20, 16, 100, arch::ReuseStrategy::kOutputStationary);
  arch::ArrayConfig bs_cfg = os_cfg;
  bs_cfg.mem.reuse = arch::ReuseStrategy::kBStationary;
  const MemoryPlan os = TileScheduler(os_cfg).plan(shape, 40);
  const MemoryPlan bs = TileScheduler(bs_cfg).plan(shape, 40);
  EXPECT_EQ(os.dram_bytes(), bs.dram_bytes());
  EXPECT_LT(bs.dma_transfers, os.dma_transfers);
  // Fewer transfers means fewer fixed-latency charges: when latency
  // dominates (100 cycles at ample bandwidth), b_stationary stalls less.
  EXPECT_LT(bs.stall_cycles, os.stall_cycles);
}

TEST(TileSchedulerTest, AutoPicksTheCheapestFeasibleStrategy) {
  Rng rng(42);
  for (int iter = 0; iter < 12; ++iter) {
    const gemm::GemmShape shape{rng.next_in(1, 48), rng.next_in(1, 48),
                                rng.next_in(1, 24)};
    arch::ArrayConfig cfg =
        mem_config(8, 1, rng.next_in(1, 64), rng.next_in(0, 64),
                   arch::ReuseStrategy::kAuto);
    cfg.mem.spad_bytes = 1;
    const std::int64_t min_auto = TileScheduler(cfg).min_spad_bytes(
        shape, arch::ReuseStrategy::kAuto);
    cfg.mem.spad_bytes = min_auto * rng.next_in(1, 6);
    const TileScheduler scheduler(cfg);
    const MemoryPlan best = scheduler.plan(shape, 64);
    EXPECT_NE(best.strategy, arch::ReuseStrategy::kAuto);
    for (const arch::ReuseStrategy s :
         {arch::ReuseStrategy::kAStationary, arch::ReuseStrategy::kBStationary,
          arch::ReuseStrategy::kOutputStationary}) {
      if (scheduler.min_spad_bytes(shape, s) > cfg.mem.spad_bytes) continue;
      arch::ArrayConfig forced = cfg;
      forced.mem.reuse = s;
      const MemoryPlan p = TileScheduler(forced).plan(shape, 64);
      EXPECT_LE(best.total_cycles, p.total_cycles)
          << arch::reuse_strategy_name(s);
    }
  }
}

TEST(TileSchedulerTest, InfeasibleScratchpadIsALoudError) {
  const gemm::GemmShape shape{64, 64, 32};
  arch::ArrayConfig cfg =
      mem_config(8, 1 << 20, 16, 8, arch::ReuseStrategy::kBStationary);
  const std::int64_t min_spad = TileScheduler(cfg).min_spad_bytes(
      shape, arch::ReuseStrategy::kBStationary);
  cfg.mem.spad_bytes = min_spad;
  EXPECT_EQ(TileScheduler(cfg).plan(shape, 64).spad_peak_bytes, min_spad);
  cfg.mem.spad_bytes = min_spad - 1;
  EXPECT_THROW(TileScheduler(cfg).plan(shape, 64), Error);
  // kAuto only throws when NO strategy fits.
  cfg.mem.reuse = arch::ReuseStrategy::kAuto;
  EXPECT_NO_THROW(TileScheduler(cfg).plan(shape, 64));
  cfg.mem.spad_bytes = 16;  // smaller than any working set
  EXPECT_THROW(TileScheduler(cfg).plan(shape, 64), Error);
}

TEST(TileSchedulerTest, SparseSkipsTrafficAndAllZeroIsFree) {
  Rng rng(7);
  const gemm::GemmShape shape{40, 40, 16};
  const arch::ArrayConfig cfg =
      mem_config(8, 1 << 20, 4, 16, arch::ReuseStrategy::kAuto);
  const TileScheduler scheduler(cfg);
  const MemoryPlan dense = scheduler.plan(shape, 64);
  const arch::TileOccupancy half =
      arch::TileOccupancy::synthetic(shape, 8, 8, 0.4, rng);
  const MemoryPlan sparse = scheduler.plan(shape, 64, &half);
  EXPECT_LT(sparse.dram_bytes(), dense.dram_bytes());
  EXPECT_LT(sparse.total_cycles, dense.total_cycles);
  EXPECT_EQ(sparse.compute_cycles, 64 * half.nonzero_tiles());

  const arch::TileOccupancy none =
      arch::TileOccupancy::synthetic(shape, 8, 8, 0.0, rng);
  const MemoryPlan empty = scheduler.plan(shape, 64, &none);
  EXPECT_EQ(empty.total_cycles, 0);
  EXPECT_EQ(empty.dram_bytes(), 0);
  EXPECT_EQ(empty.dma_transfers, 0);
}

TEST(TileSchedulerTest, DoubleBufferingHidesTransfersWhenComputeBound) {
  // Long per-tile compute, zero latency, wide bus: after the initial fill
  // every fetch hides under the previous visit's compute, so the stall is
  // just the pipeline fill plus the final writeback drain.
  const gemm::GemmShape shape{32, 32, 16};
  const arch::ArrayConfig cfg = mem_config(
      8, 1 << 20, 4096, 0, arch::ReuseStrategy::kOutputStationary);
  const MemoryPlan plan = TileScheduler(cfg).plan(shape, 10000);
  EXPECT_GT(plan.stall_cycles, 0);  // the fill/drain edges are real
  EXPECT_LT(plan.stall_cycles, plan.compute_cycles / 10);
}

TEST(TileSchedulerTest, StarvedBandwidthMakesTheStreamTheMakespan) {
  // 1 byte/cycle: the DMA channel needs >= dram_bytes cycles no matter
  // what compute does — the roofline's bandwidth wall.
  const gemm::GemmShape shape{32, 32, 16};
  const arch::ArrayConfig cfg =
      mem_config(8, 1 << 20, 1, 0, arch::ReuseStrategy::kAuto);
  const MemoryPlan plan = TileScheduler(cfg).plan(shape, 10);
  EXPECT_GE(plan.total_cycles, plan.dram_bytes());
  EXPECT_GT(plan.stall_cycles, plan.compute_cycles);
}

TEST(TileSchedulerTest, MismatchedOccupancyGridIsRejected) {
  // 16x16 weights on an 8x8 array tile into a 2x2 grid.  A grid of any
  // other size used to be planned silently (too large: the extra occupied
  // tiles dropped) or to fail midway (too small: an index out of range).
  const gemm::GemmShape shape{16, 16, 10};
  const TileScheduler scheduler(
      mem_config(8, 1 << 20, 16, 8, arch::ReuseStrategy::kAuto));
  Rng rng(3);
  const arch::TileOccupancy fits =
      arch::TileOccupancy::synthetic(shape, 8, 8, 1.0, rng);
  EXPECT_EQ(scheduler.plan(shape, 10, &fits).compute_cycles, 4 * 10);
  const arch::TileOccupancy too_large =
      arch::TileOccupancy::synthetic({32, 32, 10}, 8, 8, 1.0, rng);  // 4x4
  const arch::TileOccupancy too_small =
      arch::TileOccupancy::synthetic({8, 8, 10}, 8, 8, 1.0, rng);    // 1x1
  for (const arch::TileOccupancy* wrong : {&too_large, &too_small}) {
    try {
      scheduler.plan(shape, 10, wrong);
      ADD_FAILURE() << "a " << wrong->row_tiles() << "x" << wrong->col_tiles()
                    << " grid was planned against a 2x2 shape";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
      const std::string what = e.what();
      const std::string grid = std::to_string(wrong->row_tiles()) + "x" +
                               std::to_string(wrong->col_tiles());
      EXPECT_NE(what.find("grid " + grid), std::string::npos) << what;
      EXPECT_NE(what.find("want 2x2"), std::string::npos) << what;
    }
  }
}

// Plans `iterations` random GEMMs on 1..max_side x 1..max_side arrays, with
// m and n in 1..max_dim: odd operand widths, zero DRAM latency, every
// reuse value, scratchpads one byte either side of each strategy's floor
// (and of a_stationary's resident-output size), dense and sparse
// occupancies.  Every MemoryPlan field must equal reference_plan's, the
// two must throw together, and a dense plan must equal the plan of the
// same grid under an all-nonzero occupancy, which walks every visit.
struct SweepCounts {
  int planned = 0;
  int rejected = 0;
  int dense_tiles_10k = 0;  // planned dense grids of 10,000 tiles or more
};

void sweep_against_oracle(std::uint64_t seed, int iterations, int max_side,
                          std::int64_t max_dim, SweepCounts& counts) {
  Rng rng(seed);
  constexpr arch::ReuseStrategy kReuse[] = {
      arch::ReuseStrategy::kAuto, arch::ReuseStrategy::kAStationary,
      arch::ReuseStrategy::kBStationary,
      arch::ReuseStrategy::kOutputStationary};
  for (int iter = 0; iter < iterations; ++iter) {
    arch::ArrayConfig cfg;
    cfg.rows = static_cast<int>(rng.next_in(1, max_side));
    cfg.cols = static_cast<int>(rng.next_in(1, max_side));
    cfg.supported_k = {1};
    cfg.input_bits = static_cast<int>(rng.next_in(2, 32));
    cfg.acc_bits = static_cast<int>(rng.next_in(2 * cfg.input_bits, 64));
    cfg.mem.enabled = true;
    cfg.mem.spad_bytes = 1;
    cfg.mem.dram_bytes_per_cycle = rng.next_in(1, 64);
    cfg.mem.dram_latency_cycles =
        rng.next_below(4) == 0 ? 0 : rng.next_in(1, 200);
    cfg.mem.reuse = kReuse[rng.next_below(4)];
    cfg.validate();
    const gemm::GemmShape shape{rng.next_in(1, max_dim),
                                rng.next_in(1, max_dim), rng.next_in(1, 24)};

    // A scratchpad straddling one strategy's floor (or a_stationary's
    // resident-output size) by -1, 0 or +1 byte, or roomy.
    const TileScheduler sizer(cfg);
    const arch::ReuseStrategy probe = kReuse[rng.next_below(4)];
    const std::int64_t in_b = sizer.model().input_bytes();
    const std::int64_t resident =
        2 * shape.t * std::min<std::int64_t>(cfg.rows, shape.n) * in_b +
        2 * std::min<std::int64_t>(cfg.rows, shape.n) *
            std::min<std::int64_t>(cfg.cols, shape.m) * in_b +
        shape.t * shape.m * sizer.model().acc_bytes();
    const std::int64_t edge = rng.next_below(5) == 0
                                  ? resident
                                  : sizer.min_spad_bytes(shape, probe);
    cfg.mem.spad_bytes =
        rng.next_below(5) == 0 ? edge * 4 : edge + rng.next_in(-1, 1);

    std::optional<arch::TileOccupancy> occupancy;
    if (rng.next_below(3) != 0) {
      const std::uint64_t pick = rng.next_below(6);
      const double density =
          pick == 0 ? 0.0 : pick == 1 ? 1.0 : rng.next_double();
      occupancy = arch::TileOccupancy::synthetic(shape, cfg.rows, cfg.cols,
                                                 density, rng);
    }
    const arch::TileOccupancy* occ = occupancy ? &*occupancy : nullptr;
    const std::int64_t per_tile = rng.next_in(1, 500);

    const std::string where =
        "iter " + std::to_string(iter) + " " + cfg.to_string() + " shape (m=" +
        std::to_string(shape.m) + ", n=" + std::to_string(shape.n) +
        ", t=" + std::to_string(shape.t) + ") per_tile " +
        std::to_string(per_tile) + (occ ? " sparse" : " dense");
    const TileScheduler scheduler(cfg);
    std::optional<MemoryPlan> got, want;
    try {
      got = scheduler.plan(shape, per_tile, occ);
    } catch (const Error&) {
    }
    try {
      want = reference_plan(cfg, shape, per_tile, occ);
    } catch (const Error&) {
    }
    ASSERT_EQ(got.has_value(), want.has_value()) << where;
    if (!got) {
      ++counts.rejected;
      continue;
    }
    ++counts.planned;
    expect_plans_equal(*got, *want, where);
    if (occ == nullptr) {
      // Its own Rng, so the sweep's draws do not depend on this check.
      Rng fill(1);
      const arch::TileOccupancy all = arch::TileOccupancy::synthetic(
          shape, cfg.rows, cfg.cols, 1.0, fill);
      expect_plans_equal(*got, scheduler.plan(shape, per_tile, &all),
                         where + " vs all-nonzero occupancy");
      if (all.total_tiles() >= 10000) ++counts.dense_tiles_10k;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TileSchedulerTest, RandomizedSweepMatchesTheTransferListOracle) {
  // Non-square arrays up to 8x8 and grids up to 40 x 40 elements: many
  // edge tiles and short runs.
  SweepCounts counts;
  sweep_against_oracle(20240517, 1500, 8, 40, counts);
  // Both sides of the feasibility edge were exercised.
  EXPECT_GT(counts.planned, 1000);
  EXPECT_GT(counts.rejected, 50);
}

TEST(TileSchedulerTest, LongGridSweepMatchesTheTransferListOracle) {
  // Arrays up to 4x4 and m, n up to 600: groups of hundreds of visits and
  // hundreds of groups, the long runs a dense plan steps over
  // (TileScheduler's steady-state jump) rather than walks.
  SweepCounts counts;
  sweep_against_oracle(20261019, 300, 4, 600, counts);
  EXPECT_GT(counts.planned, 150);
  EXPECT_GT(counts.rejected, 50);
  EXPECT_GT(counts.dense_tiles_10k, 20);
}

TEST(TileSchedulerTest, ChannelThatMovesUnevenlyIsNotJumped) {
  // A spilling a_stationary plan on a zero-latency channel in which a
  // visit moves both compute ends by one amount and the DMA channel by
  // another.  A jump that checked only the compute ends would step over
  // the rest of that run with the wrong channel time; a randomized search
  // for such plans found this one.
  arch::ArrayConfig cfg;
  cfg.rows = 2;
  cfg.cols = 3;
  cfg.supported_k = {1};
  cfg.input_bits = 31;
  cfg.acc_bits = 64;
  cfg.mem.enabled = true;
  cfg.mem.spad_bytes = 1089;
  cfg.mem.dram_bytes_per_cycle = 22;
  cfg.mem.dram_latency_cycles = 0;
  cfg.mem.reuse = arch::ReuseStrategy::kAStationary;
  cfg.validate();
  const gemm::GemmShape shape{33, 37, 5};
  const MemoryPlan got = TileScheduler(cfg).plan(shape, 409);
  expect_plans_equal(got, reference_plan(cfg, shape, 409, nullptr), "oracle");
  Rng fill(1);
  const arch::TileOccupancy all =
      arch::TileOccupancy::synthetic(shape, cfg.rows, cfg.cols, 1.0, fill);
  expect_plans_equal(got, TileScheduler(cfg).plan(shape, 409, &all),
                     "all-nonzero occupancy");
}

TEST(TileSchedulerTest, NamedPaperLayersKeepTheirPlans) {
  // Every MemoryPlan field of named paper layers on a 16x16 array at
  // 4 B/cycle and 64 cycles of DRAM latency, 32-bit operands and 64-bit
  // accumulators, one visit costing L(1) = 46 + t cycles (Eq. 1).  Recorded
  // from the visit-by-visit walk, without the steady-state jump: an oracle
  // written alongside the planner could share its mistakes, a recorded
  // number cannot.  64 MiB holds a_stationary's whole output; 64 KiB makes
  // it spill.
  constexpr std::int64_t kMiB64 = std::int64_t{64} << 20;
  constexpr std::int64_t kKiB64 = std::int64_t{64} << 10;
  constexpr auto kA = arch::ReuseStrategy::kAStationary;
  constexpr auto kB = arch::ReuseStrategy::kBStationary;
  constexpr auto kO = arch::ReuseStrategy::kOutputStationary;
  struct Pin {
    const char* layer;
    gemm::GemmShape shape;  // m, n, t
    std::int64_t spad_bytes;
    // strategy, compute, stall, total, read bytes, write bytes, spad peak,
    // transfers
    MemoryPlan plan;
  };
  const Pin pins[] = {
      {"ResNet-34 conv5_2_1", {512, 4608, 49}, kMiB64,
       {kA, 875520, 2370048, 3245568, 10340352, 200704, 209024, 9536}},
      {"ResNet-34 conv5_2_1", {512, 4608, 49}, kMiB64,
       {kB, 875520, 9353311, 10228831, 38338560, 200704, 602368, 9280}},
      {"ResNet-34 conv5_2_1", {512, 4608, 49}, kMiB64,
       {kO, 875520, 9944032, 10819552, 38338560, 200704, 14592, 18464}},
      {"ResNet-34 conv5_2_1", {512, 4608, 49}, kKiB64,
       {kA, 875520, 33222144, 34097664, 67942400, 57802752, 20864, 27904}},
      {"ResNet-34 conv1", {64, 147, 12544}, kMiB64,
       {kA, 503600, 3204680, 3708280, 7413504, 6422528, 8030208, 54}},
      {"ResNet-34 conv1", {64, 147, 12544}, kMiB64,
       {kB, 503600, 8533496, 9037096, 29541120, 6422528, 3230080, 48}},
      {"ResNet-34 conv1", {64, 147, 12544}, kMiB64,
       {kO, 503600, 8543048, 9046648, 29541120, 6422528, 3213312, 84}},
      {"MobileNet pw13", {1024, 1024, 49}, kMiB64,
       {kA, 389120, 1080320, 1469440, 4395008, 401408, 409728, 4224}},
      {"MobileNet pw13", {1024, 1024, 49}, kMiB64,
       {kB, 389120, 4241503, 4630623, 17039360, 401408, 143616, 4224}},
      {"MobileNet pw13", {1024, 1024, 49}, kMiB64,
       {kO, 389120, 4505536, 4894656, 17039360, 401408, 14592, 8256}},
      {"MobileNet pw13", {1024, 1024, 49}, kKiB64,
       {kA, 389120, 14629888, 15019008, 29683712, 25690112, 20864, 12288}},
      {"ConvNeXt s3_b1_pw2", {384, 1536, 196}, kMiB64,
       {kA, 557568, 638976, 1196544, 3563520, 602112, 629248, 2424}},
      {"ConvNeXt s3_b1_pw2", {384, 1536, 196}, kMiB64,
       {kB, 557568, 7558898, 8116466, 31260672, 602112, 246784, 2352}},
      {"ConvNeXt s3_b1_pw2", {384, 1536, 196}, kMiB64,
       {kO, 557568, 7710384, 8267952, 31260672, 602112, 52224, 4632}},
  };
  for (const Pin& pin : pins) {
    const arch::ArrayConfig cfg =
        mem_config(16, pin.spad_bytes, 4, 64, pin.plan.strategy);
    const std::string where =
        std::string(pin.layer) + " " +
        arch::reuse_strategy_name(pin.plan.strategy) + " on " +
        std::to_string(pin.spad_bytes) + " B";
    expect_plans_equal(
        TileScheduler(cfg).plan(pin.shape, 46 + pin.shape.t), pin.plan, where);
  }
}

TEST(ProjectedBytesTest, CompulsoryTrafficIsShapeDrivenAndConfigScaled) {
  arch::ArrayConfig cfg;  // memory disabled: the projection still works
  const gemm::GemmShape shape{24, 16, 10};
  EXPECT_EQ(projected_gemm_bytes(shape, cfg),
            10 * 16 * 4 + 16 * 24 * 4 + 10 * 24 * 8);
  cfg.input_bits = 8;
  cfg.acc_bits = 32;
  EXPECT_EQ(projected_gemm_bytes(shape, cfg),
            10 * 16 * 1 + 16 * 24 * 1 + 10 * 24 * 4);
}

}  // namespace
}  // namespace af::mem
