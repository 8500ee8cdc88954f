// Tests for batching, placement, and the paper's synthetic data model.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "data/data.hpp"
#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::data {
namespace {

// --- BatchPartition --------------------------------------------------------------

TEST(BatchPartition, EvenSplit) {
  BatchPartition p(12, 3);
  EXPECT_EQ(p.num_batches(), 4u);
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(p.actual_size(b), 3u);
    const auto idx = p.indices(b);
    EXPECT_EQ(idx.front(), b * 3);
    EXPECT_EQ(idx.back(), b * 3 + 2);
  }
}

TEST(BatchPartition, PartialLastBatchReplacesZeroPadding) {
  // m = 10, r = 4 -> batches {0..3}, {4..7}, {8, 9} (last one short; the
  // paper pads with zeros, which is equivalent for gradient sums).
  BatchPartition p(10, 4);
  EXPECT_EQ(p.num_batches(), 3u);
  EXPECT_EQ(p.actual_size(0), 4u);
  EXPECT_EQ(p.actual_size(2), 2u);
}

TEST(BatchPartition, SingleBatchWhenLoadCoversAll) {
  BatchPartition p(5, 100);
  EXPECT_EQ(p.num_batches(), 1u);
  EXPECT_EQ(p.actual_size(0), 5u);
}

TEST(BatchPartition, BatchOfIsConsistentWithIndices) {
  BatchPartition p(17, 5);
  for (std::size_t j = 0; j < 17; ++j) {
    const std::size_t b = p.batch_of(j);
    const auto idx = p.indices(b);
    EXPECT_NE(std::find(idx.begin(), idx.end(), j), idx.end());
  }
}

TEST(BatchPartition, RejectsDegenerateArguments) {
  EXPECT_THROW(BatchPartition(0, 1), coupon::AssertionError);
  EXPECT_THROW(BatchPartition(1, 0), coupon::AssertionError);
}

class BatchPartitionSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(BatchPartitionSweep, BatchesPartitionAllExamples) {
  const auto [m, r] = GetParam();
  BatchPartition p(m, r);
  EXPECT_EQ(p.num_batches(), (m + r - 1) / r);
  std::set<std::size_t> seen;
  for (std::size_t b = 0; b < p.num_batches(); ++b) {
    for (std::size_t j : p.indices(b)) {
      EXPECT_TRUE(seen.insert(j).second) << "example in two batches";
      EXPECT_EQ(p.batch_of(j), b);
    }
  }
  EXPECT_EQ(seen.size(), m);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchPartitionSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{10, 1},
                      std::pair<std::size_t, std::size_t>{10, 10},
                      std::pair<std::size_t, std::size_t>{10, 3},
                      std::pair<std::size_t, std::size_t>{100, 7},
                      std::pair<std::size_t, std::size_t>{50, 10},
                      std::pair<std::size_t, std::size_t>{101, 10}));

// --- Placement ---------------------------------------------------------------------

TEST(Placement, ComputationalLoadIsMaxDegree) {
  const Placement p(10, {{0, 1}, {2, 3, 4, 5}, {6}});
  EXPECT_EQ(p.computational_load(), 4u);
  EXPECT_EQ(p.total_assigned(), 7u);
}

TEST(Placement, CoverageDetection) {
  EXPECT_FALSE(Placement(4, {{0, 1}, {2}}).covers_all_examples());
  EXPECT_TRUE(Placement(4, {{0, 1}, {2, 3}}).covers_all_examples());
}

TEST(Placement, MultiplicitiesCountReplication) {
  const Placement p(3, {{0, 1}, {1, 2}, {2, 1}});
  const auto mult = p.example_multiplicities();
  EXPECT_EQ(mult[0], 1u);
  EXPECT_EQ(mult[1], 3u);
  EXPECT_EQ(mult[2], 2u);
}

TEST(Placement, EmptyPlacementHasZeroLoad) {
  const Placement p(10, std::vector<std::vector<std::size_t>>(4));
  EXPECT_EQ(p.num_workers(), 4u);
  EXPECT_EQ(p.computational_load(), 0u);
  EXPECT_FALSE(p.covers_all_examples());
}

TEST(Placement, OutOfRangeExampleAsserts) {
  const Placement p(3, {{7}});
  EXPECT_THROW(p.covers_all_examples(), coupon::AssertionError);
}

TEST(Placement, WorkersWithOneSetIndexShareOneObject) {
  // Two sets, four workers: workers 0 and 2 hold set 1, workers 1 and 3
  // set 0. Sharing is by reference, not by equal contents.
  const Placement p(4, {{0, 1}, {2, 3}}, {1, 0, 1, 0});
  ASSERT_EQ(p.num_workers(), 4u);
  EXPECT_EQ(&p.worker(0), &p.worker(2));
  EXPECT_EQ(&p.worker(1), &p.worker(3));
  EXPECT_NE(&p.worker(0), &p.worker(1));
  EXPECT_EQ(p.set_of_worker(0), 1u);
  EXPECT_EQ(p.worker(0), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(p.total_assigned(), 8u);
  EXPECT_EQ(p.example_multiplicities(), (std::vector<std::size_t>{2, 2, 2, 2}));
}

TEST(Placement, SetsNoWorkerHoldsCountForNothing) {
  // Set 1 is a BCC batch nobody drew: its units stay uncovered and its
  // size does not raise the load.
  const Placement p(5, {{0, 1}, {2, 3, 4}}, {0, 0});
  EXPECT_FALSE(p.covers_all_examples());
  EXPECT_EQ(p.computational_load(), 2u);
  EXPECT_EQ(p.example_multiplicities(),
            (std::vector<std::size_t>{2, 2, 0, 0, 0}));
}

TEST(Placement, SetIndexOutOfRangeIsRejectedAtConstruction) {
  EXPECT_THROW(Placement(4, {{0, 1}, {2, 3}}, {0, 2}), coupon::AssertionError);
  EXPECT_THROW(Placement(4, {}, {0}), coupon::AssertionError);
}

// --- synthetic data -----------------------------------------------------------------

TEST(Synthetic, ShapesAndLabelAlphabet) {
  stats::Rng rng(1);
  SyntheticConfig config;
  config.num_features = 20;
  const auto prob = generate_logreg(50, config, rng);
  EXPECT_EQ(prob.dataset.num_examples(), 50u);
  EXPECT_EQ(prob.dataset.num_features(), 20u);
  EXPECT_EQ(prob.w_star.size(), 20u);
  for (double y : prob.dataset.y) {
    EXPECT_TRUE(y == 1.0 || y == -1.0);
  }
  for (double w : prob.w_star) {
    EXPECT_TRUE(w == 1.0 || w == -1.0);
  }
}

TEST(Synthetic, DeterministicGivenSeed) {
  SyntheticConfig config;
  config.num_features = 10;
  stats::Rng rng1(7), rng2(7);
  const auto a = generate_logreg(20, config, rng1);
  const auto b = generate_logreg(20, config, rng2);
  EXPECT_EQ(a.dataset.x, b.dataset.x);
  EXPECT_EQ(a.dataset.y, b.dataset.y);
  EXPECT_EQ(a.w_star, b.w_star);
}

TEST(Synthetic, FeatureMeansFollowMixture) {
  // Marginal mean of each coordinate is 0 (mixture of +/- (1.5/p) w*).
  stats::Rng rng(11);
  SyntheticConfig config;
  config.num_features = 4;
  const auto prob = generate_logreg(20000, config, rng);
  for (std::size_t c = 0; c < 4; ++c) {
    double mean = 0.0;
    for (std::size_t j = 0; j < prob.dataset.num_examples(); ++j) {
      mean += prob.dataset.x(j, c);
    }
    mean /= static_cast<double>(prob.dataset.num_examples());
    EXPECT_NEAR(mean, 0.0, 0.05);
  }
}

TEST(Synthetic, LabelsAnticorrelateWithTrueMargin) {
  // kappa = 1/(exp(x^T w*) + 1) = sigmoid(-x^T w*): positive labels are
  // *more likely* when x^T w* is negative — the model the paper states.
  stats::Rng rng(13);
  SyntheticConfig config;
  config.num_features = 50;
  const auto prob = generate_logreg(5000, config, rng);
  double corr = 0.0;
  for (std::size_t j = 0; j < prob.dataset.num_examples(); ++j) {
    const double margin =
        linalg::dot(prob.dataset.x.row(j), prob.w_star);
    corr += margin * prob.dataset.y[j];
  }
  EXPECT_LT(corr / static_cast<double>(prob.dataset.num_examples()), 0.0);
}

TEST(Synthetic, SelectSubsetsRows) {
  stats::Rng rng(17);
  SyntheticConfig config;
  config.num_features = 6;
  const auto prob = generate_logreg(10, config, rng);
  const std::vector<std::size_t> idx = {3, 7, 9};
  const Dataset sub = prob.dataset.select(idx);
  EXPECT_EQ(sub.num_examples(), 3u);
  EXPECT_EQ(sub.num_features(), 6u);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    EXPECT_EQ(sub.y[k], prob.dataset.y[idx[k]]);
    for (std::size_t c = 0; c < 6; ++c) {
      EXPECT_DOUBLE_EQ(sub.x(k, c), prob.dataset.x(idx[k], c));
    }
  }
}

TEST(Synthetic, RejectsDegenerateArguments) {
  stats::Rng rng(1);
  SyntheticConfig config;
  config.num_features = 0;
  EXPECT_THROW(generate_logreg(10, config, rng), coupon::AssertionError);
  config.num_features = 5;
  EXPECT_THROW(generate_logreg(0, config, rng), coupon::AssertionError);
}

}  // namespace
}  // namespace coupon::data
