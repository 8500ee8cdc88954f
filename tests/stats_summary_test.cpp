// Tests for the streaming statistics accumulator.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/summary.hpp"

namespace coupon::stats {
namespace {

TEST(OnlineStats, EmptyAccumulator) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sem(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(OnlineStats, MatchesDirectComputation) {
  OnlineStats s;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / 5.0;
  double ss = 0.0;
  for (double x : xs) {
    ss += (x - mean) * (x - mean);
  }
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), ss / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  EXPECT_NEAR(s.sem(), s.stddev() / std::sqrt(5.0), 1e-12);
}

TEST(OnlineStats, NumericallyStableForLargeOffsets) {
  OnlineStats s;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) {
    s.add(offset + (i % 2 == 0 ? 1.0 : -1.0));
  }
  EXPECT_NEAR(s.mean(), offset, 1e-3);
  EXPECT_NEAR(s.variance(), 1.0 + 1e-3, 2e-3);
}

}  // namespace
}  // namespace coupon::stats
