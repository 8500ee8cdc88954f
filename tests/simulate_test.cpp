// Tests for the cluster iteration model and the EC2-scenario harness
// (the Fig. 4 / Table I-II shape).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

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

TEST(SimulateRun, LegacyIterationCountOverloadStillRecordsTheTrace) {
  stats::Rng rng(22);
  core::SchemeConfig config{8, 8, 2, false};
  auto scheme = core::SchemeRegistry::instance().create("uncoded", config, rng);
  const auto run = simulate_run(*scheme, test_cluster(), 6, rng);
  EXPECT_EQ(run.iterations.size(), 6u);
}

TEST(SimulateRun, AggregatesMatchPerIterationReports) {
  stats::Rng rng(6);
  core::SchemeConfig config{10, 10, 3, false};
  auto scheme =
      core::SchemeRegistry::instance().create("cr", config, rng);
  const auto run = simulate_run(*scheme, test_cluster(), 20, rng);
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
  const auto run = simulate_run(*scheme, test_cluster(), 400, rng);
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
  const auto run_uncoded = simulate_run(*uncoded, cluster, 100, rng);
  auto bcc = core::SchemeRegistry::instance().create("bcc", config, rng);
  const auto run_bcc = simulate_run(*bcc, cluster, 100, rng);

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
  const auto run = simulate_run(*fr, cluster, 50, rng);
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


TEST(WriteIterationCsv, EmitsHeaderAndOneLinePerIteration) {
  stats::Rng rng(13);
  core::SchemeConfig config{6, 6, 2, false};
  auto scheme =
      core::SchemeRegistry::instance().create("cr", config, rng);
  const auto run = simulate_run(*scheme, test_cluster(), 5, rng);
  std::ostringstream os;
  write_iteration_csv(os, run);
  const std::string text = os.str();
  // Header + 5 data rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
  EXPECT_NE(text.find("iteration,total_time"), std::string::npos);
  EXPECT_NE(text.find("\n0,"), std::string::npos);
  EXPECT_NE(text.find("\n4,"), std::string::npos);
  // CR hears n - s = 5 workers each iteration.
  EXPECT_NE(text.find(",5,"), std::string::npos);
}
// --- paper scenarios ---------------------------------------------------------------------

TEST(Scenario, Ec2ConfigsMatchThePaper) {
  const auto s1 = ec2_scenario_one();
  EXPECT_EQ(s1.num_workers, 50u);
  EXPECT_EQ(s1.num_units, 50u);
  EXPECT_EQ(s1.load, 10u);
  EXPECT_EQ(s1.iterations, 100u);
  const auto s2 = ec2_scenario_two();
  EXPECT_EQ(s2.num_workers, 100u);
  EXPECT_EQ(s2.num_units, 100u);
}

TEST(Scenario, Fig4ShapeHoldsInScenarioOne) {
  const auto rows = run_scenario(
      ec2_scenario_one(),
      {"uncoded", "cr", "bcc"});
  ASSERT_EQ(rows.size(), 3u);
  const auto& uncoded = rows[0];
  const auto& cr = rows[1];
  const auto& bcc = rows[2];

  // Recovery-threshold ordering: BCC ~ 11 << CR = 41 < uncoded = 50.
  EXPECT_DOUBLE_EQ(uncoded.recovery_threshold, 50.0);
  EXPECT_DOUBLE_EQ(cr.recovery_threshold, 41.0);
  EXPECT_LT(bcc.recovery_threshold, 20.0);
  EXPECT_GE(bcc.recovery_threshold, 5.0);

  // Total-time ordering and the headline speedups (shape, wide bands).
  EXPECT_LT(bcc.total_time, cr.total_time);
  EXPECT_LT(cr.total_time, uncoded.total_time);
  const double vs_uncoded = speedup_fraction(bcc, uncoded);
  const double vs_cr = speedup_fraction(bcc, cr);
  EXPECT_GT(vs_uncoded, 0.5);
  EXPECT_LT(vs_uncoded, 0.95);
  EXPECT_GT(vs_cr, 0.4);

  // Communication dominates computation, as in Table I.
  EXPECT_GT(uncoded.comm_time, uncoded.compute_time);
  EXPECT_GT(bcc.comm_time, bcc.compute_time);
}

TEST(Scenario, Fig4ShapeHoldsInScenarioTwo) {
  const auto rows = run_scenario(
      ec2_scenario_two(),
      {"uncoded", "cr", "bcc"});
  const auto& uncoded = rows[0];
  const auto& cr = rows[1];
  const auto& bcc = rows[2];
  EXPECT_DOUBLE_EQ(uncoded.recovery_threshold, 100.0);
  EXPECT_DOUBLE_EQ(cr.recovery_threshold, 91.0);
  EXPECT_NEAR(bcc.recovery_threshold, core::theory::k_bcc(100, 10), 6.0);
  EXPECT_LT(bcc.total_time, cr.total_time);
  EXPECT_LT(cr.total_time, uncoded.total_time);
  EXPECT_GT(speedup_fraction(bcc, cr), 0.5);
}

TEST(Scenario, TotalTimeTracksRecoveryThreshold) {
  // The paper's Tables I/II observation: total time is approximately
  // proportional to K when communication dominates.
  const auto rows = run_scenario(
      ec2_scenario_two(),
      {"uncoded", "cr", "bcc"});
  for (const auto& a : rows) {
    for (const auto& b : rows) {
      if (a.recovery_threshold <= b.recovery_threshold) {
        continue;
      }
      const double k_ratio = a.recovery_threshold / b.recovery_threshold;
      const double t_ratio = a.total_time / b.total_time;
      EXPECT_NEAR(t_ratio, k_ratio, 0.45 * k_ratio)
          << a.scheme << " vs " << b.scheme;
    }
  }
}

TEST(SpeedupFraction, BasicAlgebra) {
  SchemeRunRow fast, slow;
  fast.total_time = 2.0;
  slow.total_time = 10.0;
  EXPECT_DOUBLE_EQ(speedup_fraction(fast, slow), 0.8);
}

}  // namespace
}  // namespace coupon::simulate
