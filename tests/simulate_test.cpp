// Tests for the cluster iteration model: single iterations, aggregated
// runs, message drops and per-worker latency overrides.

#include <gtest/gtest.h>

#include <memory>

#include "core/core.hpp"
#include "simulate/simulate.hpp"
#include "stats/rng.hpp"
#include "util/assert.hpp"

namespace coupon::simulate {
namespace {

// --- single iteration ---------------------------------------------------------------

ClusterConfig test_cluster() {
  ClusterConfig c;
  c.compute_shift = 1e-3;
  c.compute_straggle = 100.0;
  c.unit_transfer_seconds = 2e-3;
  c.broadcast_seconds = 1e-4;
  return c;
}

TEST(SimulateIteration, UncodedAlwaysHearsEveryWorker) {
  stats::Rng rng(1);
  core::SchemeConfig config{10, 10, 1, false};
  auto scheme = core::SchemeRegistry::instance().create("uncoded", config, rng);
  for (int trial = 0; trial < 10; ++trial) {
    const auto report = simulate_iteration(*scheme, test_cluster(), rng);
    EXPECT_TRUE(report.recovered);
    EXPECT_EQ(report.workers_heard, 10u);
    EXPECT_DOUBLE_EQ(report.units_received, 10.0);
  }
}

TEST(SimulateIteration, CyclicRepetitionHearsExactlyNMinusS) {
  stats::Rng rng(2);
  core::SchemeConfig config{10, 10, 4, false};
  auto scheme =
      core::SchemeRegistry::instance().create("cr", config, rng);
  for (int trial = 0; trial < 10; ++trial) {
    const auto report = simulate_iteration(*scheme, test_cluster(), rng);
    EXPECT_TRUE(report.recovered);
    EXPECT_EQ(report.workers_heard, 7u);  // n - r + 1
  }
}

TEST(SimulateIteration, BccHearsAtLeastBatchCount) {
  stats::Rng rng(3);
  core::SchemeConfig config{50, 20, 4, false};  // B = 5
  auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
  for (int trial = 0; trial < 10; ++trial) {
    const auto report = simulate_iteration(*scheme, test_cluster(), rng);
    if (report.recovered) {
      EXPECT_GE(report.workers_heard, 5u);
      EXPECT_LE(report.workers_heard, 50u);
    }
  }
}

TEST(SimulateIteration, TimeDecomposesIntoComputeAndComm) {
  stats::Rng rng(4);
  core::SchemeConfig config{8, 8, 2, false};
  auto scheme =
      core::SchemeRegistry::instance().create("cr", config, rng);
  const auto report = simulate_iteration(*scheme, test_cluster(), rng);
  EXPECT_TRUE(report.recovered);
  EXPECT_NEAR(report.total_time, report.compute_time + report.comm_time,
              1e-12);
  EXPECT_GT(report.compute_time, 0.0);
  EXPECT_GT(report.comm_time, 0.0);
  // Total must cover broadcast + at least one transfer.
  EXPECT_GE(report.total_time,
            test_cluster().broadcast_seconds +
                test_cluster().unit_transfer_seconds);
}

TEST(SimulateIteration, SerializedIngressLowerBoundsCommTime) {
  // K messages through a serial link take at least K * service time.
  stats::Rng rng(5);
  core::SchemeConfig config{12, 12, 1, false};
  auto scheme = core::SchemeRegistry::instance().create("uncoded", config, rng);
  const auto cluster = test_cluster();
  const auto report = simulate_iteration(*scheme, cluster, rng);
  EXPECT_GE(report.total_time,
            static_cast<double>(report.workers_heard) *
                cluster.unit_transfer_seconds);
}

TEST(SimulateIteration, DeterministicGivenSeed) {
  core::SchemeConfig config{20, 20, 5, false};
  stats::Rng rng_a(42), rng_b(42);
  auto scheme_a = core::SchemeRegistry::instance().create("bcc", config, rng_a);
  auto scheme_b = core::SchemeRegistry::instance().create("bcc", config, rng_b);
  const auto ra = simulate_iteration(*scheme_a, test_cluster(), rng_a);
  const auto rb = simulate_iteration(*scheme_b, test_cluster(), rng_b);
  EXPECT_DOUBLE_EQ(ra.total_time, rb.total_time);
  EXPECT_EQ(ra.workers_heard, rb.workers_heard);
}

// --- multi-iteration runs --------------------------------------------------------------

TEST(SimulateRun, RecordTraceOffMatchesOnExceptForTheTrace) {
  core::SchemeConfig config{10, 10, 3, false};
  stats::Rng rng_a(21), rng_b(21);
  auto scheme_a =
      core::SchemeRegistry::instance().create("bcc", config, rng_a);
  auto scheme_b =
      core::SchemeRegistry::instance().create("bcc", config, rng_b);

  RunOptions with_trace{/*iterations=*/15, /*record_trace=*/true};
  RunOptions without_trace{/*iterations=*/15, /*record_trace=*/false};
  const auto run_a = simulate_run(*scheme_a, test_cluster(), with_trace,
                                  rng_a);
  const auto run_b = simulate_run(*scheme_b, test_cluster(), without_trace,
                                  rng_b);

  EXPECT_EQ(run_a.iterations.size(), 15u);
  EXPECT_TRUE(run_b.iterations.empty());
  EXPECT_DOUBLE_EQ(run_a.total_time, run_b.total_time);
  EXPECT_DOUBLE_EQ(run_a.total_compute_time, run_b.total_compute_time);
  EXPECT_DOUBLE_EQ(run_a.workers_heard.mean(), run_b.workers_heard.mean());
  EXPECT_EQ(run_a.failures, run_b.failures);
}

TEST(SimulateRun, AggregatesMatchPerIterationReports) {
  stats::Rng rng(6);
  core::SchemeConfig config{10, 10, 3, false};
  auto scheme =
      core::SchemeRegistry::instance().create("cr", config, rng);
  const RunOptions options{.iterations = 20, .record_trace = true};
  const auto run = simulate_run(*scheme, test_cluster(), options, rng);
  ASSERT_EQ(run.iterations.size(), 20u);
  double total = 0.0, compute = 0.0, comm = 0.0;
  for (const auto& it : run.iterations) {
    total += it.total_time;
    compute += it.compute_time;
    comm += it.comm_time;
  }
  EXPECT_NEAR(run.total_time, total, 1e-9);
  EXPECT_NEAR(run.total_compute_time, compute, 1e-9);
  EXPECT_NEAR(run.total_comm_time, comm, 1e-9);
  EXPECT_EQ(run.workers_heard.count(), 20u);
  EXPECT_EQ(run.failures, 0u);
}

TEST(SimulateRun, BccMeanThresholdTracksTheorem1) {
  stats::Rng rng(7);
  core::SchemeConfig config{400, 20, 4, false};  // B = 5, K ~ 11.42
  auto scheme = core::SchemeRegistry::instance().create("bcc", config, rng);
  const RunOptions options{.iterations = 400, .record_trace = true};
  const auto run = simulate_run(*scheme, test_cluster(), options, rng);
  EXPECT_EQ(run.failures, 0u);
  // One fixed placement: looser tolerance than the fresh-placement test.
  EXPECT_NEAR(run.workers_heard.mean(), core::theory::k_bcc(20, 4), 3.5);
}


// --- failure injection and heterogeneity -----------------------------------------

TEST(SimulateIteration, DropProbabilityOneFailsEverything) {
  stats::Rng rng(8);
  core::SchemeConfig config{6, 6, 1, false};
  auto scheme = core::SchemeRegistry::instance().create("uncoded", config, rng);
  auto cluster = test_cluster();
  cluster.drop_probability = 1.0;
  const auto report = simulate_iteration(*scheme, cluster, rng);
  EXPECT_FALSE(report.recovered);
  EXPECT_EQ(report.workers_heard, 0u);
}

TEST(SimulateRun, UncodedIsFragileWhileBccIsRobustToDrops) {
  stats::Rng rng(9);
  core::SchemeConfig config{50, 50, 10, false};
  auto cluster = test_cluster();
  cluster.drop_probability = 0.05;

  auto uncoded = core::SchemeRegistry::instance().create("uncoded", config, rng);
  const RunOptions options{.iterations = 100, .record_trace = true};
  const auto run_uncoded = simulate_run(*uncoded, cluster, options, rng);
  auto bcc = core::SchemeRegistry::instance().create("bcc", config, rng);
  const auto run_bcc = simulate_run(*bcc, cluster, options, rng);

  // Any lost message kills an uncoded iteration (P ~ 1 - 0.95^50 ~ 0.92);
  // BCC needs a whole batch's pickers lost.
  EXPECT_GT(run_uncoded.failures, 60u);
  EXPECT_LT(run_bcc.failures, 30u);
  EXPECT_LT(run_bcc.failures, run_uncoded.failures);
}

TEST(SimulateRun, FractionalRepetitionSurvivesHeavyDrops) {
  stats::Rng rng(10);
  core::SchemeConfig config{50, 50, 10, false};
  auto cluster = test_cluster();
  cluster.drop_probability = 0.3;
  auto fr = core::SchemeRegistry::instance().create("fr",
                              config, rng);
  const RunOptions options{.iterations = 50, .record_trace = true};
  const auto run = simulate_run(*fr, cluster, options, rng);
  // Each block has r = 10 replicas: failure needs all ten lost (0.3^10).
  EXPECT_EQ(run.failures, 0u);
}

TEST(SimulateIteration, WorkerOverridesControlComputeTimes) {
  stats::Rng rng(11);
  core::SchemeConfig config{3, 3, 1, false};
  auto scheme = core::SchemeRegistry::instance().create("uncoded", config, rng);
  auto cluster = test_cluster();
  cluster.worker_overrides = {
      {10.0, 1e6}, {1e-4, 1e6}, {1e-4, 1e6}};  // worker 0: ~10 s floor
  const auto report = simulate_iteration(*scheme, cluster, rng);
  ASSERT_TRUE(report.recovered);
  // Uncoded waits for worker 0, whose deterministic floor dominates.
  EXPECT_GE(report.compute_time, 10.0);
  EXPECT_LT(report.compute_time, 10.1);
}

TEST(SimulateIteration, OverrideSizeMismatchAsserts) {
  stats::Rng rng(12);
  core::SchemeConfig config{4, 4, 1, false};
  auto scheme = core::SchemeRegistry::instance().create("uncoded", config, rng);
  auto cluster = test_cluster();
  cluster.worker_overrides = {{1.0, 1.0}};  // wrong size
  EXPECT_THROW(simulate_iteration(*scheme, cluster, rng),
               coupon::AssertionError);
}

}  // namespace
}  // namespace coupon::simulate
