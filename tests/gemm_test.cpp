// GEMM substrate: matrices, reference and fast multiply, tiling, quantization.

#include <gtest/gtest.h>

#include "gemm/matrix.h"
#include "gemm/multiply.h"
#include "gemm/quantize.h"
#include "gemm/reference.h"
#include "gemm/tiling.h"
#include "util/rng.h"

namespace af::gemm {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Mat32 m(2, 3, 7);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.at(1, 2), 7);
  m.at(0, 0) = -5;
  EXPECT_EQ(m.at(0, 0), -5);
}

TEST(MatrixTest, NegativeDimsRejectedBeforeAllocating) {
  EXPECT_THROW(Mat32(-1, 5), Error);
  EXPECT_THROW(Mat32(5, -1), Error);
}

TEST(MatrixTest, PaddedGrowsWithZeros) {
  Mat32 m(2, 2, 3);
  const Mat32 p = m.padded(3, 4);
  EXPECT_EQ(p.at(1, 1), 3);
  EXPECT_EQ(p.at(2, 3), 0);
  EXPECT_THROW(m.padded(1, 4), Error);
}

TEST(MatrixTest, BlockPaddedClipsAndPads) {
  Mat32 m(3, 3);
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::int64_t c = 0; c < 3; ++c) m.at(r, c) = static_cast<std::int32_t>(10 * r + c);
  }
  const Mat32 b = m.block_padded(1, 2, 3, 2);
  EXPECT_EQ(b.at(0, 0), 12);
  EXPECT_EQ(b.at(1, 0), 22);
  EXPECT_EQ(b.at(2, 0), 0);  // past the bottom edge
  EXPECT_EQ(b.at(0, 1), 0);  // past the right edge
}

TEST(MatrixTest, RandomMatrixInRange) {
  Rng rng(3);
  const Mat32 m = random_matrix(rng, 10, 10, -5, 5);
  for (std::int64_t r = 0; r < 10; ++r) {
    for (std::int64_t c = 0; c < 10; ++c) {
      EXPECT_GE(m.at(r, c), -5);
      EXPECT_LE(m.at(r, c), 5);
    }
  }
}

TEST(MatrixTest, FirstMismatchReportsCoordinates) {
  Mat64 a(2, 2), b(2, 2);
  EXPECT_EQ(first_mismatch(a, b), "");
  b.at(1, 0) = 9;
  const std::string msg = first_mismatch(a, b);
  EXPECT_NE(msg.find("(1,0)"), std::string::npos);
  EXPECT_NE(first_mismatch(a, Mat64(2, 3)).find("shape"), std::string::npos);
}

TEST(ReferenceGemmTest, SmallKnownProduct) {
  Mat32 a(2, 3);
  Mat32 b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  int v = 1;
  for (std::int64_t r = 0; r < 2; ++r) {
    for (std::int64_t c = 0; c < 3; ++c) a.at(r, c) = v++;
  }
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::int64_t c = 0; c < 2; ++c) b.at(r, c) = v++;
  }
  const Mat64 x = reference_gemm(a, b);
  EXPECT_EQ(x.at(0, 0), 58);
  EXPECT_EQ(x.at(0, 1), 64);
  EXPECT_EQ(x.at(1, 0), 139);
  EXPECT_EQ(x.at(1, 1), 154);
}

// The oracle and the served-output kernel must honour the same contract.
using GemmFn = Mat64 (*)(const Mat32&, const Mat32&);

class GemmContractTest : public ::testing::TestWithParam<GemmFn> {};

TEST_P(GemmContractTest, InnerDimensionChecked) {
  EXPECT_THROW(GetParam()(Mat32(2, 3), Mat32(4, 2)), Error);
}

TEST_P(GemmContractTest, ModularAccumulationWraps) {
  // 2^31-ish products accumulated enough times wrap the 64-bit accumulator
  // deterministically rather than saturating.
  Mat32 a(1, 4, std::numeric_limits<std::int32_t>::max());
  Mat32 b(4, 1, std::numeric_limits<std::int32_t>::max());
  const Mat64 x = GetParam()(a, b);
  const std::uint64_t p =
      static_cast<std::uint64_t>(std::int64_t{std::numeric_limits<std::int32_t>::max()} *
                                 std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(static_cast<std::uint64_t>(x.at(0, 0)), p * 4u);
}

INSTANTIATE_TEST_SUITE_P(Kernels, GemmContractTest,
                         ::testing::Values(&reference_gemm, &multiply),
                         [](const ::testing::TestParamInfo<GemmFn>& info) {
                           return info.param == &multiply
                                      ? std::string("multiply")
                                      : std::string("reference_gemm");
                         });

TEST(MultiplyTest, MatchesReferenceExactly) {
  // Two transformer shapes (a decode QKV projection, a prefill attention
  // context), then random widths 1..70, which cover every remainder of the
  // vectorized inner loop.  The full int32 range makes accumulations wrap.
  Rng rng(12);
  std::vector<GemmShape> shapes = {{192, 64, 1}, {32, 512, 272}};
  for (int i = 0; i < 300; ++i) {
    shapes.push_back({rng.next_in(1, 70), rng.next_in(1, 70), rng.next_in(1, 70)});
  }
  for (const GemmShape& s : shapes) {
    const Mat32 a = random_matrix(rng, s.t, s.n, INT32_MIN, INT32_MAX);
    const Mat32 b = random_matrix(rng, s.n, s.m, INT32_MIN, INT32_MAX);
    ASSERT_EQ(first_mismatch(multiply(a, b), reference_gemm(a, b)), "")
        << s.t << "x" << s.n << "x" << s.m;
  }
}

TEST(MacModTest, MatchesWideArithmetic) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const auto x = static_cast<std::int32_t>(rng.next_in(INT32_MIN, INT32_MAX));
    const auto y = static_cast<std::int32_t>(rng.next_in(INT32_MIN, INT32_MAX));
    const auto acc = rng.next_in(INT64_MIN / 2, INT64_MAX / 2);
    const unsigned __int128 wide =
        static_cast<unsigned __int128>(static_cast<std::uint64_t>(acc)) +
        static_cast<unsigned __int128>(
            static_cast<std::uint64_t>(static_cast<std::int64_t>(x) * y));
    EXPECT_EQ(static_cast<std::uint64_t>(mac_mod(acc, x, y)),
              static_cast<std::uint64_t>(wide));
  }
}

// --------------------------------------------------------------- tiling

TEST(TilingTest, TileCountMatchesEq2) {
  // Paper Fig. 5 example: N = 2304, M = 256 on a 132x132 array ->
  // ceil(2304/132) x ceil(256/132) = 18 x 2 = 36 tiles.
  EXPECT_EQ(tile_count({256, 2304, 196}, 132, 132), 36);
  // 128x128: 18 x 2 = 36.
  EXPECT_EQ(tile_count({256, 2304, 196}, 128, 128), 36);
  EXPECT_EQ(tile_count({1, 1, 1}, 128, 128), 1);
}

TEST(TilingTest, GridEnumeratesAllTiles) {
  const GemmShape shape{300, 200, 10};
  TileGrid grid(shape, 128, 128);
  EXPECT_EQ(grid.row_tiles(), 2);
  EXPECT_EQ(grid.col_tiles(), 3);
  const auto tiles = grid.tiles();
  ASSERT_EQ(tiles.size(), 6u);
  // Edge tiles are clipped.
  const TileCoord& last = tiles.back();
  EXPECT_EQ(last.n0, 128);
  EXPECT_EQ(last.m0, 256);
  EXPECT_EQ(last.n_extent, 72);
  EXPECT_EQ(last.m_extent, 44);
  // Interior tiles are full.
  EXPECT_EQ(tiles.front().n_extent, 128);
  EXPECT_EQ(tiles.front().m_extent, 128);
}

TEST(TilingTest, WeightStationaryOrderIteratesNInnermost) {
  TileGrid grid({300, 300, 5}, 128, 128);
  const auto tiles = grid.tiles();
  // First col_tile's N-tiles come consecutively.
  EXPECT_EQ(tiles[0].m0, 0);
  EXPECT_EQ(tiles[1].m0, 0);
  EXPECT_EQ(tiles[0].n0, 0);
  EXPECT_EQ(tiles[1].n0, 128);
}

TEST(TilingTest, DegenerateShapesRejected) {
  EXPECT_THROW(TileGrid({0, 1, 1}, 128, 128), Error);
  EXPECT_THROW(TileGrid({1, 1, 1}, 0, 128), Error);
  EXPECT_THROW(tile_count({1, 1, 1}, 0, 1), Error);
}

// ------------------------------------------------------------ quantization

TEST(QuantizeTest, ScaleChoosesMaxAbs) {
  const QuantParams p = choose_symmetric_scale({-2.0f, 1.0f, 0.5f}, 8);
  EXPECT_NEAR(p.scale, 2.0 / 127.0, 1e-12);
  EXPECT_EQ(quantize_value(-2.0f, p), -127);
  EXPECT_EQ(quantize_value(2.0f, p), 127);
  EXPECT_EQ(quantize_value(0.0f, p), 0);
}

TEST(QuantizeTest, AllZeroInputUsesUnitScale) {
  const QuantParams p = choose_symmetric_scale({0.0f, 0.0f}, 8);
  EXPECT_EQ(p.scale, 1.0);
}

TEST(QuantizeTest, RoundTripErrorBounded) {
  Rng rng(4);
  std::vector<float> values(256);
  for (auto& v : values) {
    v = static_cast<float>(rng.next_double() * 8.0 - 4.0);
  }
  const QuantParams p = choose_symmetric_scale(values, 16);
  // Round-trip error is bounded by half an LSB.
  EXPECT_LE(max_roundtrip_error(values, p), p.scale * 0.5 + 1e-9);
}

TEST(QuantizeTest, MatrixQuantization) {
  const std::vector<float> values = {1.0f, -1.0f, 0.5f, 0.25f};
  const QuantParams p = choose_symmetric_scale(values, 8);
  const Mat32 m = quantize_matrix(values, 2, 2, p);
  EXPECT_EQ(m.at(0, 0), 127);
  EXPECT_EQ(m.at(0, 1), -127);
  EXPECT_THROW(quantize_matrix(values, 3, 2, p), Error);
}

TEST(QuantizeTest, BitsRangeChecked) {
  EXPECT_THROW(choose_symmetric_scale({1.0f}, 1), Error);
  EXPECT_THROW(choose_symmetric_scale({1.0f}, 33), Error);
}

}  // namespace
}  // namespace af::gemm
