// Tests for Matrix and GEMV.

#include <gtest/gtest.h>

#include <vector>

#include "linalg/gemv.hpp"
#include "linalg/matrix.hpp"
#include "stats/rng.hpp"
#include "util/assert.hpp"

namespace coupon::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, stats::Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) {
    v = rng.normal();
  }
  return m;
}

TEST(Matrix, InitializerListAndAccess) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(2, 0), 5.0);
}

TEST(Matrix, RaggedInitializerAsserts) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), coupon::AssertionError);
}

TEST(Matrix, Identity) {
  const Matrix i3 = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(i3(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, RowSpanIsContiguousView) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  auto row = m.row(1);
  row[0] = 30.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 30.0);
  EXPECT_EQ(m.row(0).size(), 2u);
}

TEST(Matrix, TransposeRoundTrip) {
  stats::Rng rng(1);
  const Matrix a = random_matrix(4, 7, rng);
  const Matrix att = a.transposed().transposed();
  EXPECT_EQ(att, a);
  EXPECT_DOUBLE_EQ(a.transposed()(3, 2), a(2, 3));
}

TEST(Matrix, SelectRows) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const std::vector<std::size_t> idx = {2, 0};
  const Matrix s = m.select_rows(idx);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 2.0);
}

TEST(Matrix, SelectRowsOutOfRangeAsserts) {
  Matrix m(2, 2);
  const std::vector<std::size_t> idx = {5};
  EXPECT_THROW(m.select_rows(idx), coupon::AssertionError);
}

TEST(Matrix, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.size(), 0u);
}

TEST(Gemv, MatchesManualComputation) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const std::vector<double> x = {5.0, 6.0};
  std::vector<double> y = {100.0, 200.0};
  gemv(2.0, a, x, 0.5, y);  // y = 2*A*x + 0.5*y
  EXPECT_DOUBLE_EQ(y[0], 2.0 * 17.0 + 50.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0 * 39.0 + 100.0);
}

TEST(Gemv, DimensionMismatchAsserts) {
  const Matrix a(2, 3);
  std::vector<double> x(2), y(2);
  EXPECT_THROW(gemv(1.0, a, x, 0.0, y), coupon::AssertionError);
}

}  // namespace
}  // namespace coupon::linalg
