// Tests for the dense direct solvers (LU, QR least squares).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "linalg/gemv.hpp"
#include "linalg/solve.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/rng.hpp"

namespace coupon::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, stats::Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) {
    v = rng.normal();
  }
  return m;
}

std::vector<double> random_vector(std::size_t n, stats::Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) {
    x = rng.normal();
  }
  return v;
}

/// Reference A * B by the textbook triple loop.
Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      for (std::size_t k = 0; k < a.cols(); ++k) {
        c(i, j) += a(i, k) * b(k, j);
      }
    }
  }
  return c;
}

// --- LU ----------------------------------------------------------------------

class LuSolveTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuSolveTest, RandomSystemResidualIsTiny) {
  const std::size_t n = GetParam();
  stats::Rng rng(100 + n);
  for (int trial = 0; trial < 5; ++trial) {
    const Matrix a = random_matrix(n, n, rng);
    const auto b = random_vector(n, rng);
    const auto x = solve(a, b);
    ASSERT_TRUE(x.has_value());
    EXPECT_LT(residual_norm(a, *x, b), 1e-9 * (1.0 + nrm2(b)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSolveTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 50, 100));

TEST(LuSolve, KnownSystem) {
  const Matrix a = {{2.0, 1.0}, {1.0, 3.0}};
  const std::vector<double> b = {5.0, 10.0};
  const auto x = solve(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(LuSolve, SingularMatrixReturnsNullopt) {
  const Matrix a = {{1.0, 2.0}, {2.0, 4.0}};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_FALSE(solve(a, b).has_value());
}

TEST(LuSolve, PivotingHandlesZeroLeadingEntry) {
  const Matrix a = {{0.0, 1.0}, {1.0, 0.0}};
  const std::vector<double> b = {3.0, 7.0};
  const auto x = solve(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 7.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(LuFactor, ReusableForMultipleRhs) {
  stats::Rng rng(7);
  const Matrix a = random_matrix(8, 8, rng);
  const auto factors = lu_factor(a);
  for (int trial = 0; trial < 3; ++trial) {
    const auto b = random_vector(8, rng);
    const auto x = lu_solve(factors, b);
    ASSERT_TRUE(x.has_value());
    EXPECT_LT(residual_norm(a, *x, b), 1e-10);
  }
}

// --- QR / least squares --------------------------------------------------------

class QrSquareTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QrSquareTest, SquareSystemSolvedExactly) {
  const std::size_t n = GetParam();
  stats::Rng rng(200 + n);
  const Matrix a = random_matrix(n, n, rng);
  const auto x_true = random_vector(n, rng);
  std::vector<double> b(n, 0.0);
  gemv(1.0, a, x_true, 0.0, b);
  const auto x = lstsq(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_LT(max_abs_diff(*x, x_true), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, QrSquareTest,
                         ::testing::Values(1, 2, 4, 8, 20, 50));

TEST(Lstsq, ConsistentOverdeterminedIsExact) {
  stats::Rng rng(11);
  const Matrix a = random_matrix(30, 8, rng);
  const auto x_true = random_vector(8, rng);
  std::vector<double> b(30, 0.0);
  gemv(1.0, a, x_true, 0.0, b);
  const auto x = lstsq(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_LT(max_abs_diff(*x, x_true), 1e-9);
  EXPECT_LT(residual_norm(a, *x, b), 1e-9);
}

TEST(Lstsq, InconsistentMatchesNormalEquations) {
  stats::Rng rng(13);
  const Matrix a = random_matrix(20, 5, rng);
  const auto b = random_vector(20, rng);
  const auto x = lstsq(a, b);
  ASSERT_TRUE(x.has_value());
  // Normal equations: (A^T A) x = A^T b, solved with pivoted LU.
  const Matrix at = a.transposed();
  const Matrix ata = matmul(at, a);
  std::vector<double> atb(5, 0.0);
  gemv(1.0, at, b, 0.0, atb);
  const auto x_ne = solve(ata, atb);
  ASSERT_TRUE(x_ne.has_value());
  EXPECT_LT(max_abs_diff(*x, *x_ne), 1e-8);
}

TEST(Lstsq, ResidualIsOrthogonalToColumnSpace) {
  stats::Rng rng(17);
  const Matrix a = random_matrix(25, 6, rng);
  const auto b = random_vector(25, rng);
  const auto x = lstsq(a, b);
  ASSERT_TRUE(x.has_value());
  // r = A x - b must satisfy A^T r = 0.
  std::vector<double> r(b.begin(), b.end());
  gemv(1.0, a, *x, -1.0, r);
  std::vector<double> atr(6, 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      atr[j] += a(i, j) * r[i];
    }
  }
  EXPECT_LT(max_abs(atr), 1e-9);
}

TEST(Lstsq, RankDeficientReturnsNullopt) {
  // Two identical columns.
  Matrix a(6, 2);
  stats::Rng rng(19);
  for (std::size_t i = 0; i < 6; ++i) {
    a(i, 0) = rng.normal();
    a(i, 1) = a(i, 0);
  }
  const auto b = random_vector(6, rng);
  EXPECT_FALSE(lstsq(a, b).has_value());
}

TEST(QrFactor, RequiresRowsGeqCols) {
  EXPECT_THROW(qr_factor(Matrix(3, 5)), coupon::AssertionError);
}

TEST(QrFactor, RPreservesColumnNorms) {
  // |det(R)| == |det(A)| is hard; instead check ||A e_1|| == |R_11|.
  stats::Rng rng(23);
  const Matrix a = random_matrix(10, 4, rng);
  const auto f = qr_factor(a);
  ASSERT_FALSE(f.rank_deficient);
  double col0 = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    col0 += a(i, 0) * a(i, 0);
  }
  EXPECT_NEAR(std::abs(f.qr(0, 0)), std::sqrt(col0), 1e-10);
}

TEST(ResidualNorm, ZeroForExactSolution) {
  const Matrix a = {{2.0, 0.0}, {0.0, 2.0}};
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> b = {2.0, 4.0};
  EXPECT_NEAR(residual_norm(a, x, b), 0.0, 1e-14);
}

TEST(ResidualNorm, MeasuresDeviation) {
  const Matrix a = Matrix::identity(2);
  const std::vector<double> x = {1.0, 0.0};
  const std::vector<double> b = {0.0, 0.0};
  EXPECT_NEAR(residual_norm(a, x, b), 1.0, 1e-14);
}

}  // namespace
}  // namespace coupon::linalg
