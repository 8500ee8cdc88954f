// Deep tests for the fractional repetition scheme: block-replicated
// placement, worst-case straggler tolerance, and the early-finish
// property the paper's footnote 2 points out.

#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "core/partition_scheme.hpp"
#include "data/synthetic.hpp"
#include "linalg/vector_ops.hpp"
#include "opt/logistic.hpp"
#include "stats/rng.hpp"

namespace coupon::core {
namespace {

// Builds an int64 meta vector inline (std::span cannot bind a brace list).
std::vector<std::int64_t> mv(std::initializer_list<std::int64_t> v) {
  return std::vector<std::int64_t>(v);
}

TEST(Fr, RequiresDivisibility) {
  EXPECT_THROW(make_fractional_repetition(10, 3), AssertionError);
  EXPECT_NO_THROW(make_fractional_repetition(12, 3));
}

TEST(Fr, BlocksAreContiguousAndReplicatedRTimes) {
  // Worker i holds block i mod (n/r), units {b r, ..., b r + r - 1}, one
  // replica per group of n/r workers; the placement stores each block
  // once, so a block's r workers share one object and one encode group
  // (none at r = 1, where no block has a second replica).
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {12, 3}, {12, 1}, {12, 12}, {40, 8}, {100, 10}};
  for (const auto& [n, r] : shapes) {
    const auto scheme = make_fractional_repetition(n, r);
    const std::size_t blocks = n / r;
    ASSERT_EQ(scheme->num_sets(), blocks);
    std::vector<std::size_t> replicas(blocks, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t b = scheme->placement().set_of_worker(i);
      EXPECT_EQ(b, i % blocks);
      ++replicas[b];
      const auto& g = scheme->placement().worker(i);
      ASSERT_EQ(g.size(), r);
      for (std::size_t t = 0; t < r; ++t) {
        EXPECT_EQ(g[t], b * r + t);
      }
      EXPECT_EQ(&g, &scheme->placement().worker(b)) << "n=" << n << " r=" << r;
      const auto group = r > 1 ? std::optional<std::size_t>(b) : std::nullopt;
      EXPECT_EQ(scheme->encode_group(i), group) << "n=" << n << " r=" << r;
    }
    for (std::size_t b = 0; b < blocks; ++b) {
      EXPECT_EQ(replicas[b], r);
    }
  }
}

TEST(Fr, EarlyFinishWithOneWorkerPerBlock) {
  // CR with the same load would need n - s = 10 workers; FR finishes with
  // one worker per block = 4.
  const auto scheme = make_fractional_repetition(12, 3);
  auto collector = scheme->make_collector();
  for (std::size_t block = 0; block < 4; ++block) {
    EXPECT_FALSE(collector->ready());
    // Worker `block` holds block `block` (group 0).
    collector->offer(block, scheme->message_meta(block), {});
  }
  EXPECT_TRUE(collector->ready());
  EXPECT_EQ(collector->workers_heard(), 4u);
}

TEST(Fr, ToleratesWorstCaseStragglers) {
  // s = r - 1 = 2 stragglers hitting the same block leave one replica.
  const auto scheme = make_fractional_repetition(12, 3);
  // Workers holding block 0 are {0, 4, 8}; straggle 0 and 4.
  auto collector = scheme->make_collector();
  for (std::size_t i = 0; i < 12; ++i) {
    if (i == 0 || i == 4) {
      continue;
    }
    collector->offer(i, scheme->message_meta(i), {});
  }
  EXPECT_TRUE(collector->ready());
}

TEST(Fr, ReplicaOfSeenBlockIsDiscarded) {
  const auto scheme = make_fractional_repetition(12, 3);
  auto collector = scheme->make_collector();
  EXPECT_TRUE(collector->offer(0, mv({0}), {}));   // block 0, group 0
  EXPECT_FALSE(collector->offer(4, mv({0}), {}));  // block 0, group 1
  EXPECT_EQ(collector->workers_heard(), 2u);
}

TEST(Fr, DecodedGradientMatchesSerial) {
  stats::Rng rng(41);
  data::SyntheticConfig dconf;
  dconf.num_features = 4;
  const auto prob = data::generate_logreg(8, dconf, rng);
  PerExampleSource source(prob.dataset);
  const auto scheme = make_fractional_repetition(8, 2);  // 4 blocks of 2

  std::vector<double> w(4);
  for (auto& v : w) {
    v = rng.normal();
  }
  std::vector<double> serial(4);
  opt::logistic_gradient(prob.dataset, w, serial);
  linalg::scal(8.0, serial);

  // Deliver replicas from mixed groups, including duplicates.
  auto collector = scheme->make_collector();
  for (std::size_t i : {4u, 0u, 1u, 5u, 2u, 7u}) {
    if (collector->ready()) {
      break;
    }
    const auto msg = scheme->encode(i, source, w);
    collector->offer(i, msg.meta, msg.payload);
  }
  ASSERT_TRUE(collector->ready());
  std::vector<double> decoded(4);
  collector->decode_sum(decoded);
  EXPECT_LT(linalg::max_abs_diff(decoded, serial), 1e-10);
}

TEST(Fr, AverageThresholdBeatsCyclicRepetitionWorstCase) {
  // Empirically the FR master finishes well before n - r + 1 workers when
  // arrivals are uniformly random — the footnote-2 observation.
  stats::Rng rng(43);
  const std::size_t n = 20, r = 4;  // 5 blocks, CR threshold would be 17
  const auto scheme = make_fractional_repetition(n, r);
  double total_heard = 0.0;
  const int trials = 500;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (int t = 0; t < trials; ++t) {
    rng.shuffle(order);
    auto collector = scheme->make_collector();
    for (std::size_t i : order) {
      if (collector->ready()) {
        break;
      }
      collector->offer(i, scheme->message_meta(i), {});
    }
    ASSERT_TRUE(collector->ready());
    total_heard += static_cast<double>(collector->workers_heard());
  }
  const double mean_k = total_heard / trials;
  EXPECT_LT(mean_k, 17.0 - 2.0);  // clearly below the CR threshold
  EXPECT_GE(mean_k, 5.0);         // needs at least one worker per block
}

TEST(Fr, LoadOneIsUncodedLike) {
  const auto scheme = make_fractional_repetition(6, 1);
  EXPECT_EQ(scheme->num_sets(), 6u);
  auto collector = scheme->make_collector();
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_FALSE(collector->ready());
    collector->offer(i, scheme->message_meta(i), {});
  }
  EXPECT_TRUE(collector->ready());
}

}  // namespace
}  // namespace coupon::core
