// End-to-end tests of the threaded runtime: distributed GD over real
// worker threads must reproduce serial training exactly (up to decode
// round-off), for every scheme, with and without injected stragglers.

#include <gtest/gtest.h>

#include <cctype>

#include "core/core.hpp"
#include "data/synthetic.hpp"
#include "linalg/vector_ops.hpp"
#include "opt/opt.hpp"
#include "runtime/runtime.hpp"
#include "stats/rng.hpp"

namespace coupon::runtime {
namespace {

constexpr std::size_t kUnits = 8;
constexpr std::size_t kWorkers = 8;
constexpr std::size_t kLoad = 2;  // divides kWorkers for FR
constexpr std::size_t kFeatures = 5;
constexpr std::size_t kIterations = 6;

struct Setup {
  data::SyntheticProblem problem;
  std::unique_ptr<core::PerExampleSource> source;
  std::unique_ptr<core::Scheme> scheme;
};

Setup make_setup(const std::string& kind, std::uint64_t seed = 3) {
  Setup s;
  stats::Rng rng(seed);
  data::SyntheticConfig dconf;
  dconf.num_features = kFeatures;
  s.problem = data::generate_logreg(kUnits, dconf, rng);
  s.source = std::make_unique<core::PerExampleSource>(s.problem.dataset);
  core::SchemeConfig config{kWorkers, kUnits, kLoad, true};
  // Random placements (simple randomized) may miss a unit at this small
  // n; redraw until the placement covers, as a deployment would before
  // shipping data to workers.
  for (int attempt = 0; attempt < 64; ++attempt) {
    s.scheme = core::SchemeRegistry::instance().create(kind, config, rng);
    if (s.scheme->placement().covers_all_examples()) {
      return s;
    }
  }
  ADD_FAILURE() << "no covering placement in 64 draws";
  return s;
}

std::vector<double> serial_reference(const data::Dataset& dataset) {
  opt::NesterovGradient opt(kFeatures,
                            opt::LearningRateSchedule::constant(0.5));
  const auto oracle = opt::make_logistic_oracle(dataset);
  return opt::train(opt, oracle, kIterations).weights;
}

class RuntimeSchemeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RuntimeSchemeTest, DistributedMatchesSerialTraining) {
  const auto setup = make_setup(GetParam());
  const auto expected = serial_reference(setup.problem.dataset);

  ThreadCluster cluster(*setup.scheme, *setup.source);
  opt::NesterovGradient opt(kFeatures,
                            opt::LearningRateSchedule::constant(0.5));
  TrainOptions options;
  options.iterations = kIterations;
  const auto result = cluster.train(opt, options);

  EXPECT_EQ(result.failed_iterations, 0u);
  ASSERT_EQ(result.weights.size(), expected.size());
  EXPECT_LT(linalg::max_abs_diff(result.weights, expected), 1e-7)
      << "scheme " << setup.scheme->name();
}

TEST_P(RuntimeSchemeTest, StragglerInjectionDoesNotChangeTheMath) {
  const auto setup = make_setup(GetParam());
  const auto expected = serial_reference(setup.problem.dataset);

  ThreadCluster cluster(*setup.scheme, *setup.source);
  opt::NesterovGradient opt(kFeatures,
                            opt::LearningRateSchedule::constant(0.5));
  TrainOptions options;
  options.iterations = kIterations;
  options.straggler.enabled = true;
  options.straggler.shift_ms_per_unit = 0.2;
  options.straggler.straggle = 2.0;
  const auto result = cluster.train(opt, options);

  EXPECT_EQ(result.failed_iterations, 0u);
  EXPECT_LT(linalg::max_abs_diff(result.weights, expected), 1e-7);
  EXPECT_GT(result.elapsed_seconds, 0.0);
}

TEST_P(RuntimeSchemeTest, RecoveryThresholdAccountingIsSane) {
  const auto setup = make_setup(GetParam());
  ThreadCluster cluster(*setup.scheme, *setup.source);
  opt::GradientDescent opt(kFeatures,
                           opt::LearningRateSchedule::constant(0.2));
  TrainOptions options;
  options.iterations = 4;
  const auto result = cluster.train(opt, options);
  EXPECT_EQ(result.workers_heard.count(), 4u);
  EXPECT_GE(result.workers_heard.min(), 1.0);
  EXPECT_LE(result.workers_heard.max(), static_cast<double>(kWorkers));
  EXPECT_GE(result.units_received.min(), result.workers_heard.min());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, RuntimeSchemeTest,
    ::testing::Values("uncoded", "bcc", "simple_random", "cr", "fr"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      std::string name = param_info.param;
      name[0] = static_cast<char>(std::toupper(name[0]));
      const auto underscore = name.find('_');
      if (underscore != std::string::npos) {
        name.erase(underscore, 1);
        name[underscore] = static_cast<char>(std::toupper(name[underscore]));
      }
      return name;
    });

TEST(Runtime, BccWithLowerKThanUncoded) {
  // BCC's master should on average stop after fewer workers than n.
  stats::Rng rng(9);
  data::SyntheticConfig dconf;
  dconf.num_features = 4;
  const auto problem = data::generate_logreg(6, dconf, rng);
  core::PerExampleSource source(problem.dataset);
  core::SchemeConfig config{24, 6, 2, true};  // B = 3, n = 24
  auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);

  ThreadCluster cluster(*scheme, source);
  opt::GradientDescent opt(4, opt::LearningRateSchedule::constant(0.1));
  TrainOptions options;
  options.iterations = 10;
  // Stragglers make arrival order genuinely random across iterations.
  options.straggler.enabled = true;
  options.straggler.shift_ms_per_unit = 0.05;
  options.straggler.straggle = 1.0;
  const auto result = cluster.train(opt, options);
  EXPECT_EQ(result.failed_iterations, 0u);
  EXPECT_LT(result.workers_heard.mean(), 24.0);
}

TEST(Runtime, BccCoverageFailureSkipsUpdateAndContinues) {
  // n = B = 2 randomly-placed workers collide on one batch with
  // probability 1/2 per placement; scan seeds until a colliding placement
  // shows up, then verify the run degrades gracefully.
  data::SyntheticConfig dconf;
  dconf.num_features = 3;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    stats::Rng rng(seed);
    const auto problem = data::generate_logreg(4, dconf, rng);
    core::PerExampleSource source(problem.dataset);
    core::SchemeConfig config{2, 4, 2, false};  // B = 2, n = 2
    auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
    const bool collides = !scheme->placement().covers_all_examples();
    if (!collides) {
      continue;
    }
    ThreadCluster cluster(*scheme, source);
    opt::GradientDescent opt(3, opt::LearningRateSchedule::constant(0.1));
    TrainOptions options;
    options.iterations = 3;
    const auto result = cluster.train(opt, options);
    EXPECT_EQ(result.failed_iterations, 3u);
    // No update was ever applied.
    EXPECT_EQ(result.weights, std::vector<double>(3, 0.0));
    return;
  }
  FAIL() << "no colliding placement in 32 seeds (p ~ 2^-32)";
}


TEST(Runtime, PartialFallbackAppliesRescaledCoveredGradient) {
  // n = B = 2 workers colliding on one batch: full coverage is
  // impossible, but kApplyPartial should apply exactly
  // (sum over the covered batch) / (m * covered/units) each iteration.
  data::SyntheticConfig dconf;
  dconf.num_features = 3;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    stats::Rng rng(seed);
    const auto problem = data::generate_logreg(4, dconf, rng);
    core::PerExampleSource source(problem.dataset);
    core::SchemeConfig config{2, 4, 2, false};  // B = 2, n = 2
    auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
    if (scheme->placement().covers_all_examples()) {
      continue;  // need a colliding placement
    }
    const std::size_t batch = scheme->placement().set_of_worker(0);

    ThreadCluster cluster(*scheme, source);
    opt::GradientDescent opt(3, opt::LearningRateSchedule::constant(0.1));
    TrainOptions options;
    options.iterations = 1;
    options.on_failure = FailurePolicy::kApplyPartial;
    const auto result = cluster.train(opt, options);
    EXPECT_EQ(result.partial_iterations, 1u);
    EXPECT_EQ(result.failed_iterations, 0u);

    // Expected: one GD step with grad = batch_sum / (4 * 2/4) = sum/2.
    std::vector<double> batch_sum(3, 0.0);
    const std::vector<std::size_t> idx = {batch * 2, batch * 2 + 1};
    opt::partial_gradient_sum(problem.dataset, idx,
                              std::vector<double>(3, 0.0), batch_sum, false);
    std::vector<double> expected(3);
    for (std::size_t c = 0; c < 3; ++c) {
      expected[c] = -0.1 * batch_sum[c] / 2.0;
    }
    EXPECT_LT(linalg::max_abs_diff(result.weights, expected), 1e-12);
    return;
  }
  FAIL() << "no colliding placement in 32 seeds";
}

TEST(Runtime, PartialFallbackStillMakesTrainingProgress) {
  // Same degenerate cluster over many iterations: the approximate
  // gradient still reduces the loss, unlike kSkipUpdate which freezes.
  data::SyntheticConfig dconf;
  dconf.num_features = 3;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    stats::Rng rng(seed);
    const auto problem = data::generate_logreg(4, dconf, rng);
    core::PerExampleSource source(problem.dataset);
    core::SchemeConfig config{2, 4, 2, false};
    auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
    if (scheme->placement().covers_all_examples()) {
      continue;
    }
    ThreadCluster cluster(*scheme, source);
    opt::GradientDescent opt(3, opt::LearningRateSchedule::constant(0.2));
    TrainOptions options;
    options.iterations = 15;
    options.on_failure = FailurePolicy::kApplyPartial;
    const auto result = cluster.train(opt, options);
    EXPECT_EQ(result.partial_iterations, 15u);
    // Loss on the *covered* half decreased; the weights moved.
    EXPECT_GT(linalg::max_abs(result.weights), 0.0);
    return;
  }
  FAIL() << "no colliding placement in 32 seeds";
}

TEST(Runtime, GroupedSourceMatchesSerial) {
  // The EC2 setup: units are batches of underlying examples.
  stats::Rng rng(11);
  data::SyntheticConfig dconf;
  dconf.num_features = 4;
  const auto problem = data::generate_logreg(12, dconf, rng);
  data::BatchPartition partition(12, 2);  // 6 units of 2 examples
  core::GroupedBatchSource source(problem.dataset, partition);

  core::SchemeConfig config{6, 6, 2, true};
  auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
  ThreadCluster cluster(*scheme, source);
  opt::NesterovGradient opt(4, opt::LearningRateSchedule::constant(0.5));
  TrainOptions options;
  options.iterations = 5;
  const auto result = cluster.train(opt, options);

  opt::NesterovGradient serial(4, opt::LearningRateSchedule::constant(0.5));
  const auto oracle = opt::make_logistic_oracle(problem.dataset);
  const auto expected = opt::train(serial, oracle, 5).weights;
  EXPECT_LT(linalg::max_abs_diff(result.weights, expected), 1e-8);
}


TEST(Runtime, LeastSquaresLossTrainsThroughSchemesToo) {
  // The scheme layer is loss-agnostic: swap the gradient source for the
  // squared loss and distributed training still matches serial exactly.
  stats::Rng rng(15);
  data::SyntheticConfig dconf;
  dconf.num_features = 4;
  const auto problem = data::generate_linreg(10, dconf, 0.2, rng);
  core::LeastSquaresExampleSource source(problem.dataset);

  core::SchemeConfig config{10, 10, 2, true};
  auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
  ThreadCluster cluster(*scheme, source);
  opt::GradientDescent optimizer(4, opt::LearningRateSchedule::constant(0.1));
  TrainOptions options;
  options.iterations = 20;
  const auto result = cluster.train(optimizer, options);

  opt::GradientDescent serial(4, opt::LearningRateSchedule::constant(0.1));
  const opt::GradientOracle oracle = [&](std::span<const double> w,
                                         std::span<double> g) {
    opt::squared_gradient(problem.dataset, w, g);
  };
  const auto expected = opt::train(serial, oracle, 20).weights;
  EXPECT_EQ(result.failed_iterations, 0u);
  EXPECT_LT(linalg::max_abs_diff(result.weights, expected), 1e-9);
  // Training made real progress on the squared loss.
  EXPECT_LT(opt::squared_loss(problem.dataset, result.weights),
            0.5 * opt::squared_loss(problem.dataset,
                                    std::vector<double>(4, 0.0)));
}

TEST(Runtime, AlternativeOptimizersDriveTheSameLoop) {
  // HeavyBall and AdaGrad plug into the identical master handshake.
  const auto setup = make_setup("bcc");
  for (int which = 0; which < 2; ++which) {
    ThreadCluster cluster(*setup.scheme, *setup.source);
    TrainOptions options;
    options.iterations = 5;
    std::unique_ptr<opt::IterativeOptimizer> optimizer;
    if (which == 0) {
      optimizer = std::make_unique<opt::HeavyBallGradient>(
          kFeatures, opt::LearningRateSchedule::constant(0.3), 0.5);
    } else {
      optimizer = std::make_unique<opt::AdaGrad>(
          kFeatures, opt::LearningRateSchedule::constant(0.3));
    }
    const auto result = cluster.train(*optimizer, options);
    EXPECT_EQ(result.failed_iterations, 0u);
    EXPECT_LT(opt::logistic_loss(setup.problem.dataset, result.weights),
              opt::logistic_loss(setup.problem.dataset,
                                 std::vector<double>(kFeatures, 0.0)));
  }
}

TEST(Runtime, ReusableForConsecutiveTrainingRuns) {
  const auto setup = make_setup("uncoded");
  ThreadCluster cluster(*setup.scheme, *setup.source);
  TrainOptions options;
  options.iterations = 2;
  opt::GradientDescent opt1(kFeatures,
                            opt::LearningRateSchedule::constant(0.1));
  const auto r1 = cluster.train(opt1, options);
  opt::GradientDescent opt2(kFeatures,
                            opt::LearningRateSchedule::constant(0.1));
  const auto r2 = cluster.train(opt2, options);
  EXPECT_EQ(r1.weights, r2.weights);  // identical deterministic runs

  // BCC with injected stragglers, shaped like BccWithLowerKThanUncoded:
  // a run returns while stragglers of its last iteration are still
  // computing, so a reused cluster must not share anything with them.
  // BCC's decode sums batches in batch order, so weights are bitwise
  // independent of arrival order.
  stats::Rng rng(9);
  data::SyntheticConfig dconf;
  dconf.num_features = 4;
  const auto problem = data::generate_logreg(6, dconf, rng);
  core::PerExampleSource source(problem.dataset);
  core::SchemeConfig config{24, 6, 2, true};  // B = 3, n = 24
  auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
  TrainOptions bcc_options;
  bcc_options.iterations = 10;
  bcc_options.straggler.enabled = true;
  bcc_options.straggler.shift_ms_per_unit = 0.05;
  bcc_options.straggler.straggle = 1.0;
  auto train = [&](ThreadCluster& cluster) {
    opt::GradientDescent opt(4, opt::LearningRateSchedule::constant(0.1));
    return cluster.train(opt, bcc_options).weights;
  };
  ThreadCluster fresh(*scheme, source);
  const auto expected = train(fresh);
  ThreadCluster reused(*scheme, source);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(train(reused), expected) << "run " << run;
  }
}

}  // namespace
}  // namespace coupon::runtime
