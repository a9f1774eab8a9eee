#include "core/tile_matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hetsched {
namespace {

TEST(TileMatrix, Dimensions) {
  const TileMatrix t(4, 16);
  EXPECT_EQ(t.n_tiles(), 4);
  EXPECT_EQ(t.nb(), 16);
  EXPECT_EQ(t.n_elems(), 64);
  EXPECT_EQ(t.tile_bytes(), 16u * 16u * sizeof(double));
}

TEST(TileMatrix, InvalidDimensionsThrow) {
  EXPECT_THROW(TileMatrix(0, 8), std::invalid_argument);
  EXPECT_THROW(TileMatrix(4, 0), std::invalid_argument);
}

TEST(TileMatrix, AddressableRejectsOverflowingGeometry) {
  EXPECT_TRUE(TileMatrix::addressable(8, 64));
  EXPECT_TRUE(TileMatrix::addressable(65535, 1));  // 2,147,450,880 tiles
  EXPECT_TRUE(TileMatrix::addressable(1, 1 << 30));  // 2^63 bytes still fit
  EXPECT_FALSE(TileMatrix::addressable(0, 64));
  EXPECT_FALSE(TileMatrix::addressable(8, -1));
  EXPECT_FALSE(TileMatrix::addressable(70000, 1));   // tile count > INT_MAX
  EXPECT_FALSE(TileMatrix::addressable(2, 1 << 30));  // tiles * nb > INT_MAX
  EXPECT_FALSE(TileMatrix::addressable(3, 715827882));  // bytes > SIZE_MAX
  // Rejected before any allocation is attempted.
  EXPECT_THROW(TileMatrix(70000, 1), std::length_error);
}

TEST(TileMatrix, TileHandlesAgree) {
  TileMatrix t(3, 4);
  t.tile(2, 1)[5] = 3.5;
  EXPECT_DOUBLE_EQ(t.tile(tile_linear_index(2, 1))[5], 3.5);
  EXPECT_THROW(t.tile(num_lower_tiles(3)), std::out_of_range);
}

TEST(TileMatrix, DenseRoundTrip) {
  const int n = 3, nb = 5;
  const DenseMatrix a = DenseMatrix::random_spd(n * nb, 11);
  const TileMatrix t = TileMatrix::from_dense(a, n, nb);
  const DenseMatrix back = t.to_dense();
  EXPECT_LT(DenseMatrix::max_abs_diff_lower(a, back), 1e-15);
}

TEST(TileMatrix, FromDenseDimensionMismatchThrows) {
  const DenseMatrix a = DenseMatrix::random_spd(10, 1);
  EXPECT_THROW(TileMatrix::from_dense(a, 3, 4), std::invalid_argument);
}

TEST(TileMatrix, TileContentsMatchDenseBlocks) {
  const int n = 2, nb = 3;
  DenseMatrix a(6, 6);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 6; ++i) a(i, j) = i * 10.0 + j;
  const TileMatrix t = TileMatrix::from_dense(a, n, nb);
  // Tile (1,0) element (2,1) is dense element (5, 1).
  EXPECT_DOUBLE_EQ(t.tile(1, 0)[2 + 1 * nb], a(5, 1));
  // Diagonal tile (1,1) element (0,0) is dense (3,3).
  EXPECT_DOUBLE_EQ(t.tile(1, 1)[0], a(3, 3));
}

TEST(TileMatrix, RandomSpdDeterministic) {
  const TileMatrix a = TileMatrix::random_spd(2, 4, 5);
  const TileMatrix b = TileMatrix::random_spd(2, 4, 5);
  EXPECT_LT(DenseMatrix::max_abs_diff_lower(a.to_dense(), b.to_dense()),
            1e-300);
}

}  // namespace
}  // namespace hetsched
