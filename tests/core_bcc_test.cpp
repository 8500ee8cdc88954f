// Deep tests for the Batched Coupon's Collector scheme: placement law,
// the coupon-collector recovery threshold (Theorem 1), coverage-failure
// probability, zero-padding equivalence, and the coverage-seeding
// extension.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/partition_scheme.hpp"
#include "core/theory.hpp"
#include "data/batching.hpp"
#include "data/synthetic.hpp"
#include "linalg/vector_ops.hpp"
#include "opt/logistic.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace coupon::core {
namespace {

// Builds an int64 meta vector inline (std::span cannot bind a brace list).
std::vector<std::int64_t> mv(std::initializer_list<std::int64_t> v) {
  return std::vector<std::int64_t>(v);
}

TEST(Bcc, PlacementIsTheChosenBatch) {
  // The placement keeps one copy per batch and each worker's draw as its
  // set index. The draws are the rng's uniform_int(B) in worker order (or
  // b for the first B workers under seeding), so replaying the rng gives
  // every worker's batch, and its units are the partition's batch.
  for (const bool seeded : {false, true}) {
    for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
      const std::size_t n = 300, m = 103, r = 5;  // B = 21, last batch short
      stats::Rng rng(seed);
      const auto scheme = make_bcc(n, m, r, seeded, rng);
      const data::BatchPartition partition(m, r);
      ASSERT_EQ(scheme->num_sets(), partition.num_batches());
      stats::Rng replay(seed);
      std::vector<const std::vector<std::size_t>*> batch_object(
          partition.num_batches(), nullptr);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t b = scheme->placement().set_of_worker(i);
        std::size_t drawn = i;
        if (!seeded || i >= partition.num_batches()) {
          drawn = static_cast<std::size_t>(
              replay.uniform_int(partition.num_batches()));
        }
        ASSERT_EQ(b, drawn) << "seed " << seed << " worker " << i;
        const auto& units = scheme->placement().worker(i);
        const auto expected = partition.indices(b);
        ASSERT_TRUE(std::equal(units.begin(), units.end(), expected.begin(),
                               expected.end()));
        if (batch_object[b] == nullptr) {
          batch_object[b] = &units;
        }
        EXPECT_EQ(batch_object[b], &units) << "batch " << b << " copied";
        EXPECT_EQ(scheme->message_meta(i),
                  mv({static_cast<std::int64_t>(b)}));
        EXPECT_EQ(scheme->encode_group(i), std::optional<std::size_t>(b));
      }
    }
  }
}

TEST(Bcc, BatchChoicesAreUniform) {
  // Chi-square-style check: each batch picked n/B times on average.
  stats::Rng rng(2);
  const std::size_t n = 40000, m = 40000, r = 10000;  // B = 4
  const auto scheme = make_bcc(n, m, r, false, rng);
  std::vector<std::size_t> counts(4, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++counts[scheme->placement().set_of_worker(i)];
  }
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_NEAR(static_cast<double>(counts[b]), n / 4.0,
                5.0 * std::sqrt(n / 4.0));
  }
}

TEST(Bcc, RequiresEnoughWorkersToCover) {
  stats::Rng rng(3);
  // B = ceil(10/2) = 5 batches but only 4 workers.
  EXPECT_THROW(make_bcc(4, 10, 2, false, rng), AssertionError);
}

TEST(Bcc, ExpectedRecoveryThresholdIsBHB) {
  stats::Rng rng(4);
  const auto scheme = make_bcc(100, 100, 10, false, rng);  // B = 10
  ASSERT_TRUE(scheme->expected_recovery_threshold().has_value());
  EXPECT_NEAR(*scheme->expected_recovery_threshold(),
              10.0 * theory::harmonic(10), 1e-12);
}

TEST(Bcc, EmpiricalRecoveryThresholdMatchesTheorem1) {
  // Draw fresh placements and random arrival orders; the mean number of
  // workers consumed until coverage must approach B * H_B = 5 * H_5
  // ≈ 11.417 (n is large enough for truncation to be negligible).
  const std::size_t n = 400, m = 20, r = 4;  // B = 5
  const double expected = theory::k_bcc(m, r);
  stats::Rng rng(5);
  stats::OnlineStats k_stats;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto scheme = make_bcc(n, m, r, false, rng);
    auto collector = scheme->make_collector();
    for (std::size_t i = 0; i < n && !collector->ready(); ++i) {
      collector->offer(i, scheme->message_meta(i), {});
    }
    ASSERT_TRUE(collector->ready());
    k_stats.add(static_cast<double>(collector->workers_heard()));
  }
  EXPECT_NEAR(k_stats.mean(), expected, 4.0 * k_stats.sem());
  EXPECT_NEAR(k_stats.mean(), expected, 0.35);
}

TEST(Bcc, CommunicationLoadEqualsRecoveryThreshold) {
  // Eq. 14: every message is one gradient unit, so L == K sample-by-sample.
  stats::Rng rng(6);
  const auto scheme = make_bcc(60, 12, 3, false, rng);
  auto collector = scheme->make_collector();
  for (std::size_t i = 0; i < 60 && !collector->ready(); ++i) {
    collector->offer(i, scheme->message_meta(i), {});
  }
  ASSERT_TRUE(collector->ready());
  EXPECT_DOUBLE_EQ(collector->units_received(),
                   static_cast<double>(collector->workers_heard()));
}

TEST(Bcc, DuplicateBatchIsDiscardedButCounted) {
  stats::Rng rng(7);
  // B = 4
  const auto scheme = make_bcc(8, 8, 2, /*seed_first_batches=*/true, rng);
  auto collector = scheme->make_collector();
  // Workers 0..3 hold batches 0..3 under seeding. Offer batch 0 twice via
  // two different hypothetical workers.
  EXPECT_TRUE(collector->offer(0, mv({0}), {}));
  EXPECT_FALSE(collector->offer(5, mv({0}), {}));  // duplicate coupon
  EXPECT_EQ(collector->workers_heard(), 2u);
  EXPECT_DOUBLE_EQ(collector->units_received(), 2.0);
  EXPECT_FALSE(collector->ready());
}

TEST(Bcc, SeededPlacementGuaranteesCoverage) {
  stats::Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    // B = 6
    const auto scheme = make_bcc(6, 12, 2, /*seed_first_batches=*/true, rng);
    for (std::size_t b = 0; b < 6; ++b) {
      EXPECT_EQ(scheme->placement().set_of_worker(b), b);
    }
    EXPECT_TRUE(scheme->placement().covers_all_examples());
  }
}

TEST(Bcc, RandomPlacementCanMissBatches) {
  // With n == B the probability of covering every batch is B!/B^B, so
  // misses must show up in a modest number of trials (B = 4: ~90% miss).
  stats::Rng rng(9);
  int misses = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const auto scheme = make_bcc(4, 8, 2, false, rng);
    misses += scheme->placement().covers_all_examples() ? 0 : 1;
  }
  EXPECT_GT(misses, 50);
}

TEST(Bcc, CoverageFailureProbabilityMatchesMonteCarlo) {
  const std::size_t n = 8, batches = 4;
  const double analytic = theory::bcc_coverage_failure_probability(n, batches);
  stats::Rng rng(10);
  int failures = 0;
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    std::vector<bool> seen(batches, false);
    for (std::size_t i = 0; i < n; ++i) {
      seen[rng.uniform_int(batches)] = true;
    }
    failures += std::all_of(seen.begin(), seen.end(),
                            [](bool b) { return b; })
                    ? 0
                    : 1;
  }
  const double mc = static_cast<double>(failures) / trials;
  EXPECT_NEAR(analytic, mc, 0.01);
}

TEST(Bcc, CoverageFailureProbabilityEdgeCases) {
  EXPECT_DOUBLE_EQ(theory::bcc_coverage_failure_probability(10, 1), 0.0);
  // One worker, two batches: always misses one.
  EXPECT_NEAR(theory::bcc_coverage_failure_probability(1, 2), 1.0, 1e-12);
  // Failure probability decays with n (the "sufficiently large n" of
  // Theorem 1).
  double prev = 1.0;
  for (std::size_t n : {5u, 10u, 20u, 40u, 80u}) {
    const double p = theory::bcc_coverage_failure_probability(n, 5);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
  EXPECT_LT(prev, 1e-5);
}

TEST(Bcc, ZeroPaddedLastBatchDecodesExactly) {
  // m = 10, r = 4: batch 2 holds only examples {8, 9}. The decoded sum
  // must equal the serial sum over all 10 examples regardless.
  stats::Rng rng(11);
  data::SyntheticConfig dconf;
  dconf.num_features = 5;
  const auto prob = data::generate_logreg(10, dconf, rng);
  PerExampleSource source(prob.dataset);

  const auto scheme = make_bcc(12, 10, 4, /*seed_first_batches=*/true, rng);
  std::vector<double> w(5);
  for (auto& v : w) {
    v = rng.normal();
  }
  auto collector = scheme->make_collector();
  for (std::size_t i = 0; i < 12 && !collector->ready(); ++i) {
    const auto msg = scheme->encode(i, source, w);
    collector->offer(i, msg.meta, msg.payload);
  }
  ASSERT_TRUE(collector->ready());
  std::vector<double> decoded(5);
  collector->decode_sum(decoded);

  std::vector<double> full(5);
  opt::logistic_gradient(prob.dataset, w, full);
  linalg::scal(10.0, full);
  EXPECT_LT(linalg::max_abs_diff(decoded, full), 1e-10);
}

TEST(Bcc, MessageIsSumOfBatchGradients) {
  stats::Rng rng(12);
  data::SyntheticConfig dconf;
  dconf.num_features = 4;
  const auto prob = data::generate_logreg(6, dconf, rng);
  PerExampleSource source(prob.dataset);
  // B = 3
  const auto scheme = make_bcc(6, 6, 2, /*seed_first_batches=*/true, rng);
  std::vector<double> w = {0.1, -0.2, 0.3, 0.4};

  const auto msg = scheme->encode(0, source, w);  // worker 0 -> batch 0
  std::vector<double> expected(4, 0.0), one(4);
  for (std::size_t j : {0u, 1u}) {
    opt::partial_gradient(prob.dataset, j, w, one);
    linalg::axpy(1.0, one, expected);
  }
  EXPECT_LT(linalg::max_abs_diff(msg.payload, expected), 1e-12);
  EXPECT_EQ(msg.meta, (std::vector<std::int64_t>{0}));
}


TEST(Bcc, PartialDecodeSumsOnlyCoveredBatches) {
  stats::Rng rng(14);
  data::SyntheticConfig dconf;
  dconf.num_features = 4;
  const auto prob = data::generate_logreg(10, dconf, rng);
  PerExampleSource source(prob.dataset);
  // m = 10, r = 4: batches {0..3}, {4..7}, {8,9} (2 units).
  const auto scheme = make_bcc(12, 10, 4, /*seed_first_batches=*/true, rng);
  std::vector<double> w(4);
  for (auto& v : w) {
    v = rng.normal();
  }

  auto collector = scheme->make_collector();
  ASSERT_TRUE(collector->supports_partial_decode());

  // Nothing covered yet: zero partial sum.
  std::vector<double> partial(4, 99.0);
  EXPECT_EQ(collector->decode_partial_sum(partial), 0u);
  EXPECT_DOUBLE_EQ(linalg::max_abs(partial), 0.0);

  // Deliver batch 1 (workers seeded: worker 1 holds batch 1) and the
  // short batch 2 (worker 2).
  for (std::size_t i : {1u, 2u}) {
    const auto msg = scheme->encode(i, source, w);
    collector->offer(i, msg.meta, msg.payload);
  }
  EXPECT_FALSE(collector->ready());
  const std::size_t covered = collector->decode_partial_sum(partial);
  EXPECT_EQ(covered, 6u);  // 4 units + 2 units

  std::vector<double> expected(4, 0.0);
  const std::vector<std::size_t> idx = {4, 5, 6, 7, 8, 9};
  opt::partial_gradient_sum(prob.dataset, idx, w, expected, false);
  EXPECT_LT(linalg::max_abs_diff(partial, expected), 1e-12);
}

class BccSweepTest : public ::testing::TestWithParam<
                         std::tuple<std::size_t, std::size_t>> {};

TEST_P(BccSweepTest, CollectorTerminatesAndCountsAreConsistent) {
  const auto [m, r] = GetParam();
  const std::size_t batches = (m + r - 1) / r;
  const std::size_t n = std::max<std::size_t>(batches * 8, 16);
  stats::Rng rng(13 + m + r);
  const auto scheme = make_bcc(n, m, r, false, rng);
  auto collector = scheme->make_collector();
  std::size_t offered = 0;
  for (std::size_t i = 0; i < n && !collector->ready(); ++i) {
    collector->offer(i, scheme->message_meta(i), {});
    ++offered;
  }
  if (collector->ready()) {
    EXPECT_EQ(collector->workers_heard(), offered);
    EXPECT_GE(offered, batches);  // needs at least one worker per batch
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BccSweepTest,
    ::testing::Values(std::make_tuple(10, 1), std::make_tuple(10, 3),
                      std::make_tuple(10, 10), std::make_tuple(50, 10),
                      std::make_tuple(100, 10), std::make_tuple(100, 33),
                      std::make_tuple(101, 10)));

}  // namespace
}  // namespace coupon::core
