// Tests for the shared TrainingEngine protocol layer (DESIGN.md §8):
// cross-runtime equivalence (simulated training == serial reference ==
// threaded runtime, bitwise where the decode is order-independent),
// timing composition (simulated training keeps the timing-only kernel's
// clock bit-for-bit), failure policies through the engine, and loss /
// time-to-target tracking.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "data/synthetic.hpp"
#include "engine/engine.hpp"
#include "linalg/vector_ops.hpp"
#include "opt/opt.hpp"
#include "runtime/runtime.hpp"
#include "simulate/cluster_sim.hpp"
#include "stats/rng.hpp"

namespace coupon::engine {
namespace {

constexpr std::size_t kFeatures = 6;
constexpr std::size_t kIterations = 8;

simulate::ClusterConfig calm_cluster() {
  simulate::ClusterConfig c;
  c.compute_shift = 1e-3;
  c.compute_straggle = 100.0;
  c.unit_transfer_seconds = 2e-3;
  return c;
}

struct Setup {
  data::SyntheticProblem problem;
  std::unique_ptr<core::PerExampleSource> source;
  std::unique_ptr<core::Scheme> scheme;
};

/// n = m workers/units so the uncoded split is one unit per worker —
/// the shape whose decode reproduces the reference oracle bit-for-bit.
Setup make_setup(const std::string& kind, std::size_t n = 8,
                 std::uint64_t seed = 3) {
  Setup s;
  stats::Rng rng(seed);
  data::SyntheticConfig dconf;
  dconf.num_features = kFeatures;
  s.problem = data::generate_logreg(n, dconf, rng);
  s.source = std::make_unique<core::PerExampleSource>(s.problem.dataset);
  core::SchemeConfig config{n, n, 2, true};
  // Random placements may miss a unit at small n; redraw until covered.
  for (int attempt = 0; attempt < 64; ++attempt) {
    s.scheme = core::SchemeRegistry::instance().create(kind, config, rng);
    if (s.scheme->placement().covers_all_examples()) {
      return s;
    }
  }
  ADD_FAILURE() << "no covering placement in 64 draws";
  return s;
}

std::vector<double> serial_reference(const core::UnitGradientSource& source,
                                     double lr = 0.5) {
  opt::NesterovGradient optimizer(kFeatures,
                                  opt::LearningRateSchedule::constant(lr));
  const auto oracle = reference_oracle(source);
  return opt::train(optimizer, oracle, kIterations).weights;
}

TrainReport train_simulated(const Setup& setup,
                            const simulate::ClusterConfig& cluster,
                            const TrainOptions& options,
                            std::uint64_t seed = 11, double lr = 0.5) {
  stats::Rng rng(seed);
  SimulatedProvider provider(*setup.scheme, *setup.source, cluster, rng);
  TrainingEngine protocol(*setup.scheme, *setup.source, provider);
  opt::NesterovGradient optimizer(kFeatures,
                                  opt::LearningRateSchedule::constant(lr));
  return protocol.train(optimizer, options);
}

// --- cross-runtime equivalence ------------------------------------------

TEST(EngineEquivalence, SimulatedTrainingMatchesSerialBitwise) {
  // One unit per worker, wait-for-all decode slotted per worker: the
  // distributed sum replays the reference oracle's exact floating-point
  // operation order, so the weights are EQUAL, not just close — under
  // any latency model, because uncoded waits for everyone.
  const auto setup = make_setup("uncoded");
  const auto expected = serial_reference(*setup.source);

  TrainOptions options;
  options.iterations = kIterations;
  const auto report = train_simulated(setup, calm_cluster(), options);
  EXPECT_EQ(report.failed_iterations, 0u);
  EXPECT_EQ(report.weights, expected);
}

TEST(EngineEquivalence, ThreadedRuntimeMatchesTheSameReferenceBitwise) {
  // Real threads deliver in scheduling-dependent order, but the uncoded
  // collector slots payloads per worker: the decode is arrival-order
  // independent and must hit the same bits as the serial reference (and
  // therefore as the simulated provider above).
  const auto setup = make_setup("uncoded");
  const auto expected = serial_reference(*setup.source);

  runtime::ThreadCluster cluster(*setup.scheme, *setup.source);
  opt::NesterovGradient optimizer(kFeatures,
                                  opt::LearningRateSchedule::constant(0.5));
  runtime::TrainOptions options;
  options.iterations = kIterations;
  const auto report = cluster.train(optimizer, options);
  EXPECT_EQ(report.failed_iterations, 0u);
  EXPECT_EQ(report.weights, expected);
}

TEST(EngineEquivalence, ThreadedWithStragglersStillMatchesBitwise) {
  // Injected straggler sleeps shuffle arrival order without touching the
  // math: still bitwise equal for the order-independent decode.
  const auto setup = make_setup("uncoded");
  const auto expected = serial_reference(*setup.source);

  runtime::ThreadCluster cluster(*setup.scheme, *setup.source);
  opt::NesterovGradient optimizer(kFeatures,
                                  opt::LearningRateSchedule::constant(0.5));
  runtime::TrainOptions options;
  options.iterations = kIterations;
  options.straggler.enabled = true;
  options.straggler.shift_ms_per_unit = 0.2;
  options.straggler.straggle = 2.0;
  const auto report = cluster.train(optimizer, options);
  EXPECT_EQ(report.weights, expected);
  EXPECT_GT(report.elapsed_seconds, 0.0);
}

TEST(EngineEquivalence, EverySchemeTrainsToTheSerialModelOnSimulatedTime) {
  // Coded decodes (CR) re-associate the sum, so the guarantee across all
  // schemes is tight-tolerance agreement, not bit equality.
  for (const char* kind : {"uncoded", "bcc", "simple_random", "cr", "fr"}) {
    const auto setup = make_setup(kind);
    const auto expected = serial_reference(*setup.source);
    TrainOptions options;
    options.iterations = kIterations;
    const auto report = train_simulated(setup, calm_cluster(), options);
    EXPECT_EQ(report.failed_iterations, 0u) << kind;
    ASSERT_EQ(report.weights.size(), expected.size());
    EXPECT_LT(linalg::max_abs_diff(report.weights, expected), 1e-7) << kind;
  }
}

TEST(EngineEquivalence, SimulatedTrainingIsDeterministicInSeed) {
  const auto setup_a = make_setup("bcc");
  const auto setup_b = make_setup("bcc");
  TrainOptions options;
  options.iterations = kIterations;
  const auto a = train_simulated(setup_a, calm_cluster(), options, 21);
  const auto b = train_simulated(setup_b, calm_cluster(), options, 21);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
}

// --- timing composes unchanged ------------------------------------------

TEST(EngineTiming, SimulatedTrainingClockMatchesTimingOnlyKernel) {
  // The provider replays the kernel's draw order and ingress recurrence:
  // the same (scheme, cluster, seed) must yield the same clock whether
  // gradients are computed or not — training adds weights to the record,
  // never perturbs the trace.
  const auto setup_train = make_setup("bcc", 12, 5);
  const auto setup_time = make_setup("bcc", 12, 5);
  const auto cluster = calm_cluster();

  TrainOptions options;
  options.iterations = 20;
  const auto trained = train_simulated(setup_train, cluster, options, 33);

  stats::Rng rng(33);
  simulate::RunOptions run_options;
  run_options.iterations = 20;
  const auto timed =
      simulate::simulate_run(*setup_time.scheme, cluster, run_options, rng);

  EXPECT_DOUBLE_EQ(trained.elapsed_seconds, timed.total_time);
  EXPECT_DOUBLE_EQ(trained.compute_seconds, timed.total_compute_time);
  EXPECT_DOUBLE_EQ(trained.comm_seconds, timed.total_comm_time);
  EXPECT_DOUBLE_EQ(trained.workers_heard.mean(), timed.workers_heard.mean());
  EXPECT_DOUBLE_EQ(trained.units_received.mean(),
                   timed.units_received.mean());
  EXPECT_EQ(trained.failed_iterations, timed.failures);
}

// --- failure policies through the engine --------------------------------

/// A 2-worker / 2-batch BCC setup whose random batch choices collide
/// (coverage impossible), found by scanning seeds.
struct CollidingSetup {
  data::SyntheticProblem problem;
  std::unique_ptr<core::PerExampleSource> source;
  std::unique_ptr<core::Scheme> scheme;
  bool found = false;
};

CollidingSetup make_colliding_bcc() {
  CollidingSetup s;
  data::SyntheticConfig dconf;
  dconf.num_features = kFeatures;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    stats::Rng rng(seed);
    s.problem = data::generate_logreg(4, dconf, rng);
    s.source = std::make_unique<core::PerExampleSource>(s.problem.dataset);
    core::SchemeConfig config{2, 4, 2, false};  // B = 2, n = 2
    s.scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
    if (!s.scheme->placement().covers_all_examples()) {
      s.found = true;
      return s;
    }
  }
  return s;
}

TEST(EngineFailurePolicy, SkipUpdateCountsFailuresAndFreezesTheModel) {
  const auto s = make_colliding_bcc();
  ASSERT_TRUE(s.found) << "no colliding placement in 64 seeds";

  stats::Rng rng(1);
  SimulatedProvider provider(*s.scheme, *s.source, calm_cluster(), rng);
  TrainingEngine protocol(*s.scheme, *s.source, provider);
  opt::GradientDescent optimizer(kFeatures,
                                 opt::LearningRateSchedule::constant(0.1));
  TrainOptions options;
  options.iterations = 3;
  const auto report = protocol.train(optimizer, options);
  EXPECT_EQ(report.failed_iterations, 3u);
  EXPECT_EQ(report.partial_iterations, 0u);
  EXPECT_EQ(report.weights, std::vector<double>(kFeatures, 0.0));
}

TEST(EngineFailurePolicy, ApplyPartialAppliesRescaledCoveredGradient) {
  const auto s = make_colliding_bcc();
  ASSERT_TRUE(s.found) << "no colliding placement in 64 seeds";
  const std::size_t batch = s.scheme->placement().set_of_worker(0);

  stats::Rng rng(1);
  SimulatedProvider provider(*s.scheme, *s.source, calm_cluster(), rng);
  TrainingEngine protocol(*s.scheme, *s.source, provider);
  opt::GradientDescent optimizer(kFeatures,
                                 opt::LearningRateSchedule::constant(0.1));
  TrainOptions options;
  options.iterations = 1;
  options.on_failure = FailurePolicy::kApplyPartial;
  const auto report = protocol.train(optimizer, options);
  EXPECT_EQ(report.partial_iterations, 1u);
  EXPECT_EQ(report.failed_iterations, 0u);

  // Expected: one GD step with grad = batch_sum / (4 * 2/4) = sum/2.
  std::vector<double> batch_sum(kFeatures, 0.0);
  const std::vector<std::size_t> idx = {batch * 2, batch * 2 + 1};
  opt::partial_gradient_sum(s.problem.dataset, idx,
                            std::vector<double>(kFeatures, 0.0), batch_sum,
                            false);
  std::vector<double> expected(kFeatures);
  for (std::size_t c = 0; c < kFeatures; ++c) {
    expected[c] = -0.1 * batch_sum[c] / 2.0;
  }
  EXPECT_LT(linalg::max_abs_diff(report.weights, expected), 1e-12);
}

TEST(EngineFailurePolicy, TotalMessageLossFailsEveryIteration) {
  const auto setup = make_setup("uncoded");
  auto cluster = calm_cluster();
  cluster.drop_probability = 1.0;  // every message lost, every iteration
  TrainOptions options;
  options.iterations = 4;
  const auto report = train_simulated(setup, cluster, options);
  EXPECT_EQ(report.failed_iterations, 4u);
  EXPECT_EQ(report.weights, std::vector<double>(kFeatures, 0.0));
  EXPECT_DOUBLE_EQ(report.elapsed_seconds, 0.0);  // nothing ever arrived
}

// --- loss tracking and time-to-target -----------------------------------

TEST(EngineLoss, HistoryIsStampedWithMonotonicSimulatedSeconds) {
  const auto setup = make_setup("bcc");
  TrainOptions options;
  options.iterations = kIterations;
  const data::Dataset* dataset = &setup.problem.dataset;
  options.loss_fn = [dataset](std::span<const double> w) {
    return opt::logistic_loss(*dataset, w);
  };
  options.record_loss_history = true;
  const auto report = train_simulated(setup, calm_cluster(), options);

  ASSERT_EQ(report.loss_history.size(), kIterations);
  for (std::size_t t = 1; t < report.loss_history.size(); ++t) {
    EXPECT_GT(report.loss_history[t].seconds,
              report.loss_history[t - 1].seconds);
  }
  EXPECT_DOUBLE_EQ(report.loss_history.back().seconds,
                   report.elapsed_seconds);
  ASSERT_TRUE(report.final_loss.has_value());
  EXPECT_DOUBLE_EQ(*report.final_loss, report.loss_history.back().loss);
  // Training made progress from w = 0.
  const double initial = opt::logistic_loss(
      setup.problem.dataset, std::vector<double>(kFeatures, 0.0));
  EXPECT_LT(*report.final_loss, initial);
}

TEST(EngineLoss, TimeToTargetIsReportedAndStopAtTargetStopsEarly) {
  const auto setup = make_setup("uncoded");
  const data::Dataset* dataset = &setup.problem.dataset;
  const double initial = opt::logistic_loss(
      setup.problem.dataset, std::vector<double>(kFeatures, 0.0));

  TrainOptions options;
  options.iterations = 50;
  options.loss_fn = [dataset](std::span<const double> w) {
    return opt::logistic_loss(*dataset, w);
  };
  options.target_loss = 0.95 * initial;  // reachable within a few steps
  const auto full = train_simulated(setup, calm_cluster(), options);
  ASSERT_TRUE(full.time_to_target.has_value());
  EXPECT_GT(*full.time_to_target, 0.0);
  EXPECT_LE(*full.time_to_target, full.elapsed_seconds);
  EXPECT_EQ(full.iterations_run, 50u);

  const auto setup_again = make_setup("uncoded");
  options.stop_at_target = true;
  const auto stopped = train_simulated(setup_again, calm_cluster(), options);
  ASSERT_TRUE(stopped.time_to_target.has_value());
  EXPECT_LT(stopped.iterations_run, 50u);
  EXPECT_DOUBLE_EQ(*stopped.time_to_target, stopped.elapsed_seconds);
  EXPECT_DOUBLE_EQ(*stopped.time_to_target, *full.time_to_target);
}

TEST(EngineLoss, ReferenceOracleMatchesFullGradientClosely) {
  // Sanity: the blocked reference oracle computes the same mean gradient
  // as the direct full-dataset formula (it differs only in association).
  const auto setup = make_setup("uncoded");
  const auto oracle = reference_oracle(*setup.source);
  std::vector<double> w(kFeatures, 0.25), blocked(kFeatures), full(kFeatures);
  oracle(w, blocked);
  opt::logistic_gradient(setup.problem.dataset, w, full);
  EXPECT_LT(linalg::max_abs_diff(blocked, full), 1e-12);
}

}  // namespace
}  // namespace coupon::engine
