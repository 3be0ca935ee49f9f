// The cycle-accurate systolic-array simulator pitted against the reference
// GEMM (bit-exact results) and the analytic latency model (cycle-exact
// counts, Eqs. 1-4), across a sweep of geometries, collapse modes and
// matrix sizes.

#include <gtest/gtest.h>

#include "arch/array.h"
#include "arch/latency.h"
#include "gemm/reference.h"
#include "util/rng.h"

namespace af::arch {
namespace {

ArrayConfig small_config(int rows, int cols, std::vector<int> modes) {
  ArrayConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.supported_k = std::move(modes);
  cfg.validate();
  return cfg;
}

struct SweepCase {
  int rows;
  int cols;
  int k;
  std::int64_t t;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  return "R" + std::to_string(info.param.rows) + "C" +
         std::to_string(info.param.cols) + "k" + std::to_string(info.param.k) +
         "T" + std::to_string(info.param.t);
}

class TileSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TileSweep, MatchesReferenceAndEq3) {
  const auto [rows, cols, k, t] = GetParam();
  const ArrayConfig cfg = small_config(rows, cols, {1, k});
  SystolicArray array(cfg);

  Rng rng(static_cast<std::uint64_t>(rows * 1000003 + cols * 1009 + k * 101 +
                                     t));
  const gemm::Mat32 a = gemm::random_matrix(rng, t, rows, -1000, 1000);
  const gemm::Mat32 b = gemm::random_matrix(rng, rows, cols, -1000, 1000);

  gemm::Mat64 acc(t, cols);
  const TileRunStats stats = array.run_tile(a, b, k, &acc);

  EXPECT_EQ(gemm::first_mismatch(acc, gemm::reference_gemm(a, b)), "");
  EXPECT_EQ(stats.total_cycles, tile_latency_cycles(rows, cols, t, k))
      << "simulator must land exactly on Eq. 3";
  EXPECT_EQ(stats.preload_cycles, rows);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TileSweep,
    ::testing::Values(
        // k = 1 (Eq. 1) on several shapes, including T smaller and larger
        // than the array.
        SweepCase{2, 2, 1, 1}, SweepCase{4, 4, 1, 3}, SweepCase{4, 4, 1, 17},
        SweepCase{8, 4, 1, 5}, SweepCase{4, 8, 1, 5}, SweepCase{16, 16, 1, 40},
        // k = 2.
        SweepCase{4, 4, 2, 1}, SweepCase{4, 4, 2, 9}, SweepCase{8, 8, 2, 20},
        SweepCase{8, 4, 2, 7}, SweepCase{16, 8, 2, 33},
        // k = 3 on divisible-by-3 geometry (the Fig. 5 configuration style).
        SweepCase{6, 6, 3, 5}, SweepCase{12, 6, 3, 11}, SweepCase{6, 12, 3, 2},
        // k = 4.
        SweepCase{4, 4, 4, 6}, SweepCase{8, 8, 4, 13}, SweepCase{16, 16, 4, 29},
        // Full collapse: k = R = C.
        SweepCase{8, 8, 8, 10}),
    case_name);

TEST(SystolicArrayTest, WrapAroundMatchesReference) {
  // INT32_MAX operands force 64-bit wrap-around in the accumulation chain;
  // the simulator's redundant arithmetic must wrap identically.
  const ArrayConfig cfg = small_config(4, 4, {1, 2});
  SystolicArray array(cfg);
  gemm::Mat32 a(8, 4, INT32_MAX);
  gemm::Mat32 b(4, 4, INT32_MIN);
  for (const int k : {1, 2}) {
    gemm::Mat64 acc(8, 4);
    array.run_tile(a, b, k, &acc);
    EXPECT_EQ(gemm::first_mismatch(acc, gemm::reference_gemm(a, b)), "");
  }
}

TEST(SystolicArrayTest, ModeIndependentResults) {
  // Every supported k computes the same product (only timing changes).
  const ArrayConfig cfg = small_config(8, 8, {1, 2, 4, 8});
  SystolicArray array(cfg);
  Rng rng(77);
  const gemm::Mat32 a = gemm::random_matrix(rng, 12, 8, -50, 50);
  const gemm::Mat32 b = gemm::random_matrix(rng, 8, 8, -50, 50);
  gemm::Mat64 baseline(12, 8);
  array.run_tile(a, b, 1, &baseline);
  for (const int k : {2, 4, 8}) {
    gemm::Mat64 acc(12, 8);
    array.run_tile(a, b, k, &acc);
    EXPECT_EQ(gemm::first_mismatch(acc, baseline), "") << "k=" << k;
  }
}

TEST(SystolicArrayTest, AccumulatesIntoExistingPartialSums) {
  // Tiled execution relies on the south accumulators adding on top of the
  // previous N-tile's partials.
  const ArrayConfig cfg = small_config(4, 4, {1});
  SystolicArray array(cfg);
  Rng rng(31);
  const gemm::Mat32 a = gemm::random_matrix(rng, 5, 4, -9, 9);
  const gemm::Mat32 b = gemm::random_matrix(rng, 4, 4, -9, 9);
  gemm::Mat64 acc(5, 4, /*fill=*/1000);
  array.run_tile(a, b, 1, &acc);
  const gemm::Mat64 x = gemm::reference_gemm(a, b);
  for (std::int64_t r = 0; r < 5; ++r) {
    for (std::int64_t c = 0; c < 4; ++c) {
      EXPECT_EQ(acc.at(r, c), x.at(r, c) + 1000);
    }
  }
}

TEST(SystolicArrayTest, RejectsBadArguments) {
  const ArrayConfig cfg = small_config(4, 4, {1, 2});
  SystolicArray array(cfg);
  gemm::Mat32 a(3, 4);
  gemm::Mat32 b(4, 4);
  gemm::Mat64 acc(3, 4);
  EXPECT_THROW(array.run_tile(a, b, 4, &acc), Error);          // unsupported k
  EXPECT_THROW(array.run_tile(gemm::Mat32(3, 5), b, 1, &acc), Error);
  EXPECT_THROW(array.run_tile(a, gemm::Mat32(5, 4), 1, &acc), Error);
  EXPECT_THROW(array.run_tile(a, b, 1, nullptr), Error);
  gemm::Mat64 wrong(2, 4);
  EXPECT_THROW(array.run_tile(a, b, 1, &wrong), Error);
}

struct GemmCase {
  int rows;
  int cols;
  int k;
  std::int64_t m, n, t;
};

std::string gemm_case_name(const ::testing::TestParamInfo<GemmCase>& info) {
  const auto& p = info.param;
  return "R" + std::to_string(p.rows) + "C" + std::to_string(p.cols) + "k" +
         std::to_string(p.k) + "M" + std::to_string(p.m) + "N" +
         std::to_string(p.n) + "T" + std::to_string(p.t);
}

class TiledGemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(TiledGemmSweep, MatchesReferenceAndEq4) {
  const auto& p = GetParam();
  const ArrayConfig cfg = small_config(p.rows, p.cols, {1, p.k});
  SystolicArray array(cfg);
  Rng rng(static_cast<std::uint64_t>(p.m * 31 + p.n * 17 + p.t * 7 + p.k));
  const gemm::Mat32 a = gemm::random_matrix(rng, p.t, p.n, -100, 100);
  const gemm::Mat32 b = gemm::random_matrix(rng, p.n, p.m, -100, 100);

  gemm::Mat64 out;
  const TileRunStats stats = array.run_gemm(a, b, p.k, &out);
  EXPECT_EQ(gemm::first_mismatch(out, gemm::reference_gemm(a, b)), "");

  const gemm::GemmShape shape{p.m, p.n, p.t};
  EXPECT_EQ(stats.total_cycles, total_latency_cycles(shape, cfg, p.k))
      << "tiled run must land exactly on Eq. 4";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledGemmSweep,
    ::testing::Values(
        // Exact-fit single tile.
        GemmCase{4, 4, 1, 4, 4, 6}, GemmCase{8, 8, 2, 8, 8, 5},
        // Multi-tile along N only / M only / both.
        GemmCase{4, 4, 1, 4, 10, 3}, GemmCase{4, 4, 2, 9, 4, 3},
        GemmCase{4, 4, 2, 9, 10, 7}, GemmCase{8, 8, 4, 20, 20, 4},
        // Ragged edges smaller than the array in both dimensions.
        GemmCase{8, 8, 2, 3, 3, 2}, GemmCase{8, 4, 4, 6, 17, 9},
        // N, M smaller than the array (single padded tile).
        GemmCase{16, 16, 4, 5, 7, 11}),
    gemm_case_name);

TEST(SystolicArrayTest, ObserverSeesSkewedInjection) {
  // With k = 2 the west inputs arrive in batches of two rows (paper Fig. 2b):
  // at relative cycle 0 exactly rows {0, 1} carry A[0][r].
  const ArrayConfig cfg = small_config(4, 4, {1, 2});
  SystolicArray array(cfg);
  gemm::Mat32 a(3, 4);
  for (std::int64_t t = 0; t < 3; ++t) {
    for (std::int64_t r = 0; r < 4; ++r) {
      a.at(t, r) = static_cast<std::int32_t>(100 * (t + 1) + r);
    }
  }
  gemm::Mat32 b(4, 4, 1);
  gemm::Mat64 acc(3, 4);

  std::vector<std::vector<std::int32_t>> west_log;
  array.run_tile(a, b, 2, &acc, [&](const CycleSnapshot& snap) {
    west_log.push_back(*snap.west_inputs);
  });
  ASSERT_GE(west_log.size(), 2u);
  // Cycle 0: rows 0,1 (group 0) get A[0][0..1]; rows 2,3 (group 1) idle.
  EXPECT_EQ(west_log[0][0], 100);
  EXPECT_EQ(west_log[0][1], 101);
  EXPECT_EQ(west_log[0][2], 0);
  EXPECT_EQ(west_log[0][3], 0);
  // Cycle 1: group 0 gets A[1], group 1 gets A[0] — the batch skew.
  EXPECT_EQ(west_log[1][0], 200);
  EXPECT_EQ(west_log[1][1], 201);
  EXPECT_EQ(west_log[1][2], 102);
  EXPECT_EQ(west_log[1][3], 103);
}

TEST(SystolicArrayTest, ObserverSeesSouthCompletions) {
  const ArrayConfig cfg = small_config(4, 4, {1});
  SystolicArray array(cfg);
  Rng rng(5);
  const gemm::Mat32 a = gemm::random_matrix(rng, 2, 4, -5, 5);
  const gemm::Mat32 b = gemm::random_matrix(rng, 4, 4, -5, 5);
  gemm::Mat64 acc(2, 4);
  std::int64_t south_count = 0;
  array.run_tile(a, b, 1, &acc, [&](const CycleSnapshot& snap) {
    for (const auto v : *snap.south_valid) south_count += v;
  });
  EXPECT_EQ(south_count, 2 * 4);  // every output latched exactly once
}

TEST(SystolicArrayTest, ObserverTraceFollowsTheSkewSchedule) {
  // The whole edge trace, cycle by cycle: the west edge injects on the
  // batch skew of paper Fig. 2(b), and the bottom edge retires output row
  // tag = cycle - (R/k_v - 1) - floor(c/k_h) in column c, nothing else.
  Rng rng(1717);
  for (const auto& [rows, cols] : std::vector<std::pair<int, int>>{
           {4, 4}, {8, 4}, {4, 8}, {12, 6}, {16, 8}, {32, 32}}) {
    SystolicArray array(small_config(rows, cols, {1}));
    for (int k_v = 1; k_v <= rows; ++k_v) {
      if (rows % k_v != 0) continue;
      for (int k_h = 1; k_h <= cols; ++k_h) {
        if (cols % k_h != 0) continue;
        for (const std::int64_t t : {1, 5, 40}) {
          const std::string label =
              "R=" + std::to_string(rows) + " C=" + std::to_string(cols) +
              " k_v=" + std::to_string(k_v) + " k_h=" + std::to_string(k_h) +
              " T=" + std::to_string(t);
          const gemm::Mat32 a =
              gemm::random_matrix(rng, t, rows, INT32_MIN, INT32_MAX);
          const gemm::Mat32 b =
              gemm::random_matrix(rng, rows, cols, INT32_MIN, INT32_MAX);
          const gemm::Mat64 x = gemm::reference_gemm(a, b);
          const std::int64_t v_groups = rows / k_v;
          std::int64_t snapshots = 0;
          std::int64_t bad_cycles = 0, bad_west = 0, bad_valid = 0,
                       bad_values = 0;
          gemm::Mat64 acc(t, cols);
          array.run_tile_asym(a, b, k_v, k_h, &acc,
                              [&](const CycleSnapshot& snap) {
            const std::int64_t cycle = snapshots++;
            bad_cycles += snap.relative_cycle != cycle;
            for (int r = 0; r < rows; ++r) {
              const std::int64_t row = cycle - r / k_v;
              const std::int32_t want = row >= 0 && row < t ? a.at(row, r) : 0;
              bad_west +=
                  (*snap.west_inputs)[static_cast<std::size_t>(r)] != want;
            }
            for (int c = 0; c < cols; ++c) {
              const auto i = static_cast<std::size_t>(c);
              const std::int64_t tag = cycle - (v_groups - 1) - c / k_h;
              const bool valid = tag >= 0 && tag < t;
              bad_valid += (*snap.south_valid)[i] != (valid ? 1 : 0);
              bad_values += valid && (*snap.south_values)[i] != x.at(tag, c);
            }
          });
          EXPECT_EQ(snapshots, t + v_groups + cols / k_h - 2) << label;
          EXPECT_EQ(bad_cycles, 0) << label;
          EXPECT_EQ(bad_west, 0) << label;
          EXPECT_EQ(bad_valid, 0) << label;
          EXPECT_EQ(bad_values, 0) << label;
        }
      }
    }
  }
}

TEST(SystolicArrayTest, CyclesIndependentOfData) {
  // Latency is a pure function of geometry (no data-dependent stalls).
  const ArrayConfig cfg = small_config(8, 8, {1, 4});
  SystolicArray array(cfg);
  Rng rng(6);
  gemm::Mat64 acc1(5, 8), acc2(5, 8);
  const auto s1 = array.run_tile(gemm::random_matrix(rng, 5, 8, -9, 9),
                                 gemm::random_matrix(rng, 8, 8, -9, 9), 4, &acc1);
  const auto s2 = array.run_tile(gemm::Mat32(5, 8), gemm::Mat32(8, 8), 4, &acc2);
  EXPECT_EQ(s1.total_cycles, s2.total_cycles);
}

}  // namespace
}  // namespace af::arch
