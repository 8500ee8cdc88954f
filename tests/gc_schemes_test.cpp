// Statistical gates for the gradient-coding scheme families (gc_cyclic,
// sgc, gc_nested) against theory.hpp, the analytic oracle, and the
// paper's baselines:
//
//   * the closed forms themselves (thresholds, ladder sizes, the sgc
//     estimator's scale and variance factor);
//   * exactness in simulation: every iteration's K equals n - r + 1 and
//     L equals K * (units per message), for all three schemes, under a
//     drop-free shifted-exp cluster — deterministic, so the gate is
//     1e-9, not statistical;
//   * E[T] against theory.hpp's Renyi order-statistic formula on a
//     transfer-free cluster (T = X_(n-r+1) there), at 5 standard errors;
//   * E[T]/E[K] against the analytic oracle across shifted-exp, pareto,
//     and markov compute laws (12x sem for markov: cross-iteration
//     correlation widens the sample mean's effective sem);
//   * sgc's timing-equivalence to cyclic repetition: same wait quota,
//     same one-unit messages, hence bitwise-identical iteration traces
//     at matched seeds — sgc buys its approximate decode with ZERO
//     timing overhead over the exact algebraic scheme;
//   * the convergence claim: under heavy-tailed stragglers, sgc reaches
//     the target loss in less simulated time than uncoded at matched
//     seeds, and its records are stamped approximate_recovery.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analytic/predictor.hpp"
#include "core/gc_nested.hpp"
#include "core/scheme_registry.hpp"
#include "core/theory.hpp"
#include "driver/driver.hpp"
#include "simulate/cluster_sim.hpp"
#include "simulate/latency_model.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace {

namespace theory = coupon::core::theory;

std::unique_ptr<coupon::core::Scheme> make_scheme(const std::string& name,
                                                  std::size_t n, std::size_t m,
                                                  std::size_t r,
                                                  std::uint64_t seed) {
  coupon::core::SchemeConfig config;
  config.num_workers = n;
  config.num_units = m;
  config.load = r;
  coupon::stats::Rng rng(seed);
  return coupon::core::SchemeRegistry::instance().create(name, config, rng);
}

coupon::simulate::RunReport run_traced(const coupon::core::Scheme& scheme,
                                       const coupon::simulate::ClusterConfig& c,
                                       std::size_t iterations,
                                       std::uint64_t seed) {
  coupon::stats::Rng rng(seed);
  coupon::simulate::RunOptions options;
  options.iterations = iterations;
  options.record_trace = true;
  return coupon::simulate::simulate_run(scheme, c, options, rng);
}

coupon::simulate::ClusterConfig shifted_exp_cluster() {
  coupon::simulate::ClusterConfig cluster;
  cluster.compute_shift = 1e-3;
  cluster.compute_straggle = 50.0;
  cluster.unit_transfer_seconds = 2e-3;
  cluster.broadcast_seconds = 1e-4;
  return cluster;
}

// --- the closed forms -------------------------------------------------------

TEST(GcTheory, ThresholdsMatchTheSchemesAndEqSeven) {
  // All three families wait for n - r + 1 workers — the same count as
  // Eq. 7's worst-case coded bound, reached by construction instead of
  // in the worst case.
  for (const std::size_t n : {6u, 12u, 24u}) {
    for (const std::size_t r : {1u, 2u, 3u}) {
      if (n % r != 0) {
        continue;
      }
      const double expected = static_cast<double>(n - r + 1);
      EXPECT_DOUBLE_EQ(theory::k_gc_cyclic(n, r), expected);
      EXPECT_DOUBLE_EQ(theory::k_sgc(n, r), expected);
      EXPECT_DOUBLE_EQ(theory::k_gc_nested(n, r), expected);
      EXPECT_DOUBLE_EQ(theory::k_cyclic_repetition(n, r), expected);

      for (const char* name : {"gc_cyclic", "sgc", "gc_nested"}) {
        const auto scheme = make_scheme(name, n, n, r, 5);
        const auto threshold = scheme->expected_recovery_threshold();
        ASSERT_TRUE(threshold.has_value()) << name;
        EXPECT_DOUBLE_EQ(*threshold, expected) << name;
      }
    }
  }
}

TEST(GcTheory, NestedLadderSizeCountsTheDivisors) {
  EXPECT_EQ(theory::gc_nested_levels(1), 1u);
  EXPECT_EQ(theory::gc_nested_levels(3), 2u);   // {1, 3}
  EXPECT_EQ(theory::gc_nested_levels(4), 3u);   // {1, 2, 4}
  EXPECT_EQ(theory::gc_nested_levels(6), 4u);   // {1, 2, 3, 6}
  EXPECT_EQ(theory::gc_nested_levels(12), 6u);  // {1, 2, 3, 4, 6, 12}

  const auto scheme = make_scheme("gc_nested", 12, 12, 6, 1);
  const auto* nested =
      dynamic_cast<const coupon::core::GcNestedScheme*>(scheme.get());
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->widths(),
            (std::vector<std::size_t>{1, 2, 3, 6}));
  EXPECT_DOUBLE_EQ(scheme->message_units(0), 4.0);
}

TEST(GcTheory, SgcScaleAndVarianceFactorClosedForms) {
  // scale = n / (r k); variance factor = scale^2 * k (n - k) / (n - 1).
  EXPECT_DOUBLE_EQ(theory::sgc_decode_scale(12, 3, 10), 12.0 / 30.0);
  EXPECT_DOUBLE_EQ(theory::sgc_estimator_variance_factor(12, 3, 10),
                   (12.0 / 30.0) * (12.0 / 30.0) * 10.0 * 2.0 / 11.0);
  // Full participation (k = n, r = n) is the exact mean: scale 1/..,
  // variance exactly zero.
  EXPECT_DOUBLE_EQ(theory::sgc_decode_scale(8, 8, 8), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(theory::sgc_estimator_variance_factor(8, 8, 8), 0.0);
}

// --- exactness in simulation ------------------------------------------------

TEST(GcSimulation, EveryIterationWaitsForExactlyTheThreshold) {
  constexpr std::size_t kN = 12, kR = 3, kIterations = 2000;
  const struct {
    const char* name;
    double units_per_message;
  } cases[] = {
      {"gc_cyclic", 3.0},  // r raw unit gradients per message
      {"sgc", 1.0},        // one pre-summed aggregate
      {"gc_nested", 2.0},  // d(3) = |{1, 3}| ladder components
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto scheme = make_scheme(c.name, kN, kN, kR, 17);
    EXPECT_DOUBLE_EQ(scheme->message_units(0), c.units_per_message);
    const auto report =
        run_traced(*scheme, shifted_exp_cluster(), kIterations, 0x6C);
    EXPECT_EQ(report.failures, 0u);
    ASSERT_EQ(report.iterations.size(), kIterations);
    const double threshold = theory::k_gc_cyclic(kN, kR);
    for (const auto& it : report.iterations) {
      ASSERT_EQ(static_cast<double>(it.workers_heard), threshold);
      ASSERT_DOUBLE_EQ(it.units_received, threshold * c.units_per_message);
    }
  }
}

TEST(GcSimulation, MeanTimeMatchesTheRenyiOrderStatisticFormula) {
  // With negligible transfer and no broadcast, an iteration lasts exactly
  // until the (n - r + 1)-th compute completion: E[T] is theory.hpp's
  // Renyi harmonic form for the k-th order statistic of n shifted
  // exponentials at load r.
  constexpr std::size_t kN = 12, kR = 3, kIterations = 30000;
  const double a = 1e-3, mu = 50.0;
  coupon::simulate::ClusterConfig cluster;
  cluster.compute_shift = a;
  cluster.compute_straggle = mu;
  cluster.unit_transfer_seconds = 1e-12;
  cluster.broadcast_seconds = 0.0;

  const double exact = theory::expected_kth_order_statistic_shifted_exp(
      a, mu, static_cast<double>(kR), kN, kN - kR + 1);
  for (const char* name : {"gc_cyclic", "sgc", "gc_nested"}) {
    SCOPED_TRACE(name);
    const auto scheme = make_scheme(name, kN, kN, kR, 23);
    const auto report =
        run_traced(*scheme, cluster, kIterations, 0x7E0);
    coupon::stats::OnlineStats time;
    for (const auto& it : report.iterations) {
      time.add(it.total_time);
    }
    EXPECT_NEAR(time.mean(), exact, 5.0 * time.sem() + 1e-9);
  }
}

// --- the analytic oracle ----------------------------------------------------

TEST(GcOracle, ExactSchemesMatchSimulationAcrossLatencyModels) {
  constexpr std::size_t kN = 12, kR = 3;
  struct LawCase {
    const char* tag;
    coupon::simulate::ClusterConfig cluster;
    double sem_z;
    std::size_t iterations;
  };
  std::vector<LawCase> laws;
  laws.push_back({"shifted_exp", shifted_exp_cluster(), 5.0, 20000});
  {
    coupon::simulate::ClusterConfig pareto;
    pareto.unit_transfer_seconds = 1e-3;
    pareto.latency_model = [](std::size_t) {
      return std::make_unique<coupon::simulate::ParetoModel>(2e-3, 2.5);
    };
    laws.push_back({"pareto", pareto, 5.0, 20000});
  }
  {
    // Stationary marginal is exact; correlation across iterations only
    // widens the sample mean's effective sem (see analytic_oracle_test).
    coupon::simulate::ClusterConfig markov;
    markov.unit_transfer_seconds = 1e-3;
    markov.latency_model = [](std::size_t n) {
      return std::make_unique<coupon::simulate::MarkovStragglerModel>(
          n, 1e-3, 50.0, 10.0, 0.05, 0.25);
    };
    laws.push_back({"markov", markov, 12.0, 30000});
  }

  for (const char* name : {"gc_cyclic", "gc_nested"}) {
    const auto scheme = make_scheme(name, kN, kN, kR, 7);
    for (const auto& law : laws) {
      SCOPED_TRACE(std::string(name) + " / " + law.tag);
      std::string reason;
      coupon::analytic::PredictOptions options;
      options.quantiles = false;
      const auto prediction =
          coupon::analytic::predict(*scheme, law.cluster, options, &reason);
      ASSERT_TRUE(prediction.has_value()) << reason;
      EXPECT_DOUBLE_EQ(prediction->expected_workers,
                       theory::k_gc_cyclic(kN, kR));

      const auto report =
          run_traced(*scheme, law.cluster, law.iterations, 0x6A7E);
      coupon::stats::OnlineStats time, workers;
      for (const auto& it : report.iterations) {
        time.add(it.total_time);
        workers.add(static_cast<double>(it.workers_heard));
      }
      EXPECT_NEAR(time.mean(), prediction->expected_time,
                  law.sem_z * time.sem() + 1e-9);
      EXPECT_NEAR(workers.mean(), prediction->expected_workers, 1e-9);
    }
  }
}

TEST(GcOracle, SgcIsRefusedWithTheStochasticDecodeReason) {
  // sgc's iteration time HAS a threshold law, but an E[T] ranking that
  // ignores the decode noise's convergence cost would mislead the
  // auto-tuner — the model must refuse with an explanation, not emit a
  // profile.
  const auto scheme = make_scheme("sgc", 12, 12, 3, 7);
  std::string reason;
  coupon::analytic::PredictOptions options;
  options.quantiles = false;
  EXPECT_FALSE(
      coupon::analytic::predict(*scheme, shifted_exp_cluster(), options,
                                &reason)
          .has_value());
  EXPECT_NE(reason.find("stochastic"), std::string::npos) << reason;
}

// --- sgc vs the baselines ---------------------------------------------------

TEST(GcSimulation, SgcTimingIsBitwiseIdenticalToCyclicRepetition) {
  // Identical wait quota (n - r + 1), identical one-unit messages,
  // identical per-worker compute load: at matched seeds the two schemes
  // consume the same latency draws and stop at the same arrival, so the
  // traces agree bit for bit. sgc's approximate decode costs nothing in
  // iteration time relative to the exact algebraic baseline.
  constexpr std::size_t kN = 12, kR = 3, kIterations = 500;
  const auto sgc = make_scheme("sgc", kN, kN, kR, 31);
  const auto cr = make_scheme("cr", kN, kN, kR, 37);
  EXPECT_DOUBLE_EQ(sgc->message_units(0), cr->message_units(0));

  const auto cluster = shifted_exp_cluster();
  const auto sgc_report = run_traced(*sgc, cluster, kIterations, 0xBEEF);
  const auto cr_report = run_traced(*cr, cluster, kIterations, 0xBEEF);
  ASSERT_EQ(sgc_report.iterations.size(), cr_report.iterations.size());
  for (std::size_t t = 0; t < kIterations; ++t) {
    ASSERT_EQ(sgc_report.iterations[t].total_time,
              cr_report.iterations[t].total_time)
        << "iteration " << t;
    ASSERT_EQ(sgc_report.iterations[t].workers_heard,
              cr_report.iterations[t].workers_heard);
  }
}

TEST(GcConvergence, SgcBeatsUncodedToTargetUnderHeavyStragglers) {
  // The scheme's reason to exist: under compute-dominated heavy-tailed
  // stragglers (Pareto alpha = 1.2, infinite variance), uncoded pays
  // E[max of n] ~ n^{1/alpha} per iteration while sgc pays r times the
  // (n - r + 1)-th order statistic, which stays bounded — the tail
  // excision buys several times what the r-fold compute costs. The noisy
  // decode slows per-iteration progress; the time-to-target comparison
  // nets the two effects at matched seeds. (The stock heavy_tail
  // scenario keeps the EC2 comm-dominated calibration, where per-
  // iteration times barely differ and the decode noise wins instead —
  // hence the compute-dominated override.)
  auto cluster = std::make_shared<coupon::simulate::ClusterConfig>();
  cluster->unit_transfer_seconds = 1e-5;
  cluster->broadcast_seconds = 1e-5;
  cluster->latency_model = [](std::size_t) {
    return std::make_unique<coupon::simulate::ParetoModel>(
        /*scale_per_unit=*/2e-3, /*shape=*/1.2);
  };

  coupon::driver::ExperimentConfig config;
  config.scheme = "sgc";
  config.scenario = "heavy_tail";
  config.cluster_override = cluster;
  config.runtime = "sim";
  config.train = true;
  config.num_workers = 10;
  config.num_units = 10;
  config.load = 3;
  config.iterations = 400;
  config.seed = 20260808;
  config.features = 8;
  config.examples_per_unit = 5;
  config.optimizer = "gd";
  config.learning_rate = 0.5;
  config.lr_decay = 0.05;
  config.target_loss = 0.35;
  const auto sgc = coupon::driver::run_experiment(config);

  auto uncoded_config = config;
  uncoded_config.scheme = "uncoded";
  const auto uncoded = coupon::driver::run_experiment(uncoded_config);

  ASSERT_TRUE(sgc.time_to_target.has_value())
      << "sgc never reached the target loss";
  ASSERT_TRUE(uncoded.time_to_target.has_value())
      << "uncoded never reached the target loss";
  EXPECT_LT(*sgc.time_to_target, *uncoded.time_to_target);

  // The approximate-recovery stamp: every applied sgc update rode on a
  // stochastic decode; uncoded records stay unstamped.
  EXPECT_TRUE(sgc.approximate_recovery);
  EXPECT_EQ(sgc.approximate_iterations, sgc.iterations_run);
  EXPECT_FALSE(uncoded.approximate_recovery);
  EXPECT_EQ(uncoded.approximate_iterations, 0u);
}

}  // namespace
