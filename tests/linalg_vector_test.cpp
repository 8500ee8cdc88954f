// Tests for the BLAS-1 kernels and the row kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "stats/rng.hpp"
#include "util/assert.hpp"

namespace coupon::linalg {
namespace {

// Row lengths on both sides of every vector boundary (tails of 0-3, one
// vector, p below 4) up to the paper's scale, and row counts around the
// row kernels' four-row pass and the 64-example block.
constexpr std::size_t kRowLengths[] = {
    1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 20, 31, 32, 33, 37, 64, 100, 1000};
constexpr std::size_t kRowCounts[] = {0, 1, 3, 4, 5, 63, 64};

/// n + 2 values: a sentinel at each end around n draws whose magnitudes
/// span 2^-20..2^20, so any change to the order or association of the
/// additions changes bits. Views start one double in, so none is 32-byte
/// aligned.
std::vector<double> padded_draws(std::size_t n, stats::Rng& rng) {
  std::vector<double> v(n + 2, -7.0);
  for (std::size_t i = 1; i <= n; ++i) {
    const int exponent = static_cast<int>(rng.uniform_int(-20, 20));
    v[i] = std::ldexp(rng.normal(), exponent);
  }
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::string shape(std::size_t p, std::size_t count) {
  return "p=" + std::to_string(p) + " count=" + std::to_string(count);
}

TEST(Dot, BasicAndEmpty) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  EXPECT_DOUBLE_EQ(dot(std::span<const double>{}, std::span<const double>{}),
                   0.0);
}

TEST(Dot, UnrolledPathMatchesNaive) {
  // Length 11 exercises both the unrolled-by-4 loop and the remainder.
  std::vector<double> x(11), y(11);
  double expected = 0.0;
  for (int i = 0; i < 11; ++i) {
    x[i] = 0.5 * i - 2.0;
    y[i] = 1.0 / (i + 1.0);
    expected += x[i] * y[i];
  }
  EXPECT_NEAR(dot(x, y), expected, 1e-14);
}

TEST(Dot, SizeMismatchIsDebugCheckedOnly) {
  // dot/axpy/copy size checks are COUPON_DCHECK (the hot-inner-loop
  // idiom): they fire only in COUPON_ENABLE_DCHECK builds.
#ifdef COUPON_ENABLE_DCHECK
  const std::vector<double> x = {1.0};
  const std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(dot(x, y), coupon::AssertionError);
#else
  GTEST_SKIP() << "size checks compile out without COUPON_ENABLE_DCHECK";
#endif
}

TEST(DotRows, MatchesPerRowDotBitwise) {
  stats::Rng rng(41);
  for (const std::size_t p : kRowLengths) {
    for (const std::size_t count : kRowCounts) {
      SCOPED_TRACE(shape(p, count));
      const auto rows = padded_draws(count * p, rng);
      const auto w = padded_draws(p, rng);
      const double* const r = rows.data() + 1;
      std::vector<double> expected(count + 2, -7.0);
      for (std::size_t k = 0; k < count; ++k) {
        expected[k + 1] = dot({r + k * p, p}, {w.data() + 1, p});
      }
      std::vector<double> dispatched(count + 2, -7.0);
      std::vector<double> scalar(count + 2, -7.0);
      dot_rows(r, count, p, w.data() + 1, dispatched.data() + 1);
      detail::dot_rows_scalar(r, count, p, w.data() + 1, scalar.data() + 1);
      EXPECT_TRUE(same_bits(dispatched, expected));
      EXPECT_TRUE(same_bits(scalar, expected));
    }
  }
}

TEST(AxpyRows, MatchesPerRowAxpyBitwise) {
  stats::Rng rng(42);
  for (const std::size_t p : kRowLengths) {
    for (const std::size_t count : kRowCounts) {
      SCOPED_TRACE(shape(p, count));
      const auto rows = padded_draws(count * p, rng);
      const auto coefs = padded_draws(count, rng);
      const auto start = padded_draws(p, rng);
      const double* const r = rows.data() + 1;
      std::vector<double> expected = start;
      for (std::size_t k = 0; k < count; ++k) {
        axpy(coefs[k + 1], {r + k * p, p}, {expected.data() + 1, p});
      }
      std::vector<double> dispatched = start;
      std::vector<double> scalar = start;
      axpy_rows(coefs.data() + 1, r, count, p, dispatched.data() + 1);
      detail::axpy_rows_scalar(coefs.data() + 1, r, count, p,
                               scalar.data() + 1);
      EXPECT_TRUE(same_bits(dispatched, expected));
      EXPECT_TRUE(same_bits(scalar, expected));
    }
  }
}

TEST(Axpy, AccumulatesScaled) {
  const std::vector<double> x = {1.0, 2.0};
  std::vector<double> y = {10.0, 20.0};
  axpy(3.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 13.0);
  EXPECT_DOUBLE_EQ(y[1], 26.0);
}

TEST(Axpy, ZeroAlphaLeavesUntouched) {
  const std::vector<double> x = {5.0};
  std::vector<double> y = {2.0};
  axpy(0.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
}

TEST(Scal, ScalesInPlace) {
  std::vector<double> x = {1.0, -2.0, 3.0};
  scal(-2.0, x);
  EXPECT_DOUBLE_EQ(x[0], -2.0);
  EXPECT_DOUBLE_EQ(x[1], 4.0);
  EXPECT_DOUBLE_EQ(x[2], -6.0);
}

TEST(Nrm2, MatchesEuclideanNorm) {
  const std::vector<double> x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(nrm2(x), 5.0);
  EXPECT_DOUBLE_EQ(nrm2(std::span<const double>{}), 0.0);
}

TEST(Nrm2, AvoidsOverflow) {
  const std::vector<double> x = {1e200, 1e200};
  EXPECT_NEAR(nrm2(x), std::sqrt(2.0) * 1e200, 1e187);
}

TEST(Nrm2, AvoidsUnderflow) {
  const std::vector<double> x = {1e-200, 1e-200};
  EXPECT_NEAR(nrm2(x) / 1e-200, std::sqrt(2.0), 1e-12);
}

TEST(AsumSigned, SumsElements) {
  const std::vector<double> x = {1.0, -2.0, 3.0};
  EXPECT_DOUBLE_EQ(asum_signed(x), 2.0);
}

TEST(CopyFill, Work) {
  const std::vector<double> x = {1.0, 2.0};
  std::vector<double> y(2);
  copy(x, y);
  EXPECT_EQ(y, x);
  fill(y, 7.0);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(AddSub, Elementwise) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {10.0, 20.0};
  std::vector<double> out(2);
  add(a, b, out);
  EXPECT_DOUBLE_EQ(out[0], 11.0);
  EXPECT_DOUBLE_EQ(out[1], 22.0);
  sub(b, a, out);
  EXPECT_DOUBLE_EQ(out[0], 9.0);
  EXPECT_DOUBLE_EQ(out[1], 18.0);
}

TEST(MaxAbsDiff, FindsWorstDeviation) {
  const std::vector<double> a = {1.0, 5.0, -3.0};
  const std::vector<double> b = {1.1, 5.0, -3.5};
  EXPECT_NEAR(max_abs_diff(a, b), 0.5, 1e-15);
  EXPECT_DOUBLE_EQ(
      max_abs_diff(std::span<const double>{}, std::span<const double>{}), 0.0);
}

TEST(MaxAbs, FindsLargestMagnitude) {
  const std::vector<double> a = {1.0, -5.0, 3.0};
  EXPECT_DOUBLE_EQ(max_abs(a), 5.0);
}

}  // namespace
}  // namespace coupon::linalg
