// Tests for Matrix (including where its storage starts) and GEMV.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.hpp"
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

bool on_cache_line(const Matrix& m) {
  return reinterpret_cast<std::uintptr_t>(m.data().data()) % 64 == 0;
}

TEST(Matrix, StorageStartsOnACacheLine) {
  // 1000 x 100 doubles (800 KB) is past glibc's mmap threshold, where a
  // plain allocation starts 16 bytes past a page.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1000, 100}, {1, 1}, {3, 5}, {7, 4}, {64, 20}};
  for (const auto& [rows, cols] : shapes) {
    SCOPED_TRACE(std::to_string(rows) + " x " + std::to_string(cols));
    Matrix m(rows, cols, 1.0);
    EXPECT_TRUE(on_cache_line(m));
    const Matrix copy(m);
    EXPECT_TRUE(on_cache_line(copy));
    Matrix assigned(2, 2);
    assigned = m;
    EXPECT_TRUE(on_cache_line(assigned));
    const Matrix moved(std::move(assigned));
    EXPECT_TRUE(on_cache_line(moved));
    EXPECT_TRUE(on_cache_line(m.transposed()));
    const std::vector<std::size_t> picked = {rows - 1, 0};
    EXPECT_TRUE(on_cache_line(m.select_rows(picked)));
    m.resize(rows + 5, cols + 3);
    EXPECT_TRUE(on_cache_line(m));
  }

  stats::Rng rng(7);
  data::SyntheticConfig config;
  config.num_features = 100;
  const data::SyntheticProblem problem =
      data::generate_logreg(1000, config, rng);
  EXPECT_TRUE(on_cache_line(problem.dataset.x));
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
