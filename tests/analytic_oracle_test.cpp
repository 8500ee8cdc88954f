// Gates the analytic oracle (src/analytic/, DESIGN.md §10) against hand
// calculations, closed forms, and the discrete-event simulator itself:
//
//   * coverage profiles vs brute-force subset enumeration at small n;
//   * both order-statistic engines (Steck/Noé quadrature, Lindley grid)
//     vs each other and vs the R = 2 closed form;
//   * E[X_(k)] vs theory.hpp's Rényi harmonic formula, and the
//     asymptotic coupon-collector limit vs the exact finite-n profile;
//   * the headline gate — for every scheme x shifted_exp x drop rate,
//     the Monte-Carlo sample mean of simulate_run must agree with the
//     oracle's exact E[T] / E[K] / failure rate within z * sem;
//   * stateful (markov) and mixture (bimodal) laws, and pareto;
//   * determinism (bitwise-equal repeated calls) and the unsupported
//     diagnostics;
//   * the auto-tuner: predicted ranking matches the measured ranking on
//     the paper's scenario-one grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytic/coverage.hpp"
#include "analytic/dist.hpp"
#include "analytic/order_stats.hpp"
#include "analytic/predictor.hpp"
#include "analytic/scheme_model.hpp"
#include "core/scheme_registry.hpp"
#include "core/theory.hpp"
#include "driver/driver.hpp"
#include "driver/predict.hpp"
#include "simulate/cluster_sim.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace {

using coupon::analytic::ComputeDist;
using coupon::analytic::Prediction;

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

// --- coverage profiles ----------------------------------------------------

// Brute force: P(a uniform j-subset covers every group), by enumerating
// all 2^n subsets.
std::vector<double> brute_force_partition(
    std::size_t n, const std::vector<std::size_t>& group_sizes) {
  std::vector<std::size_t> group_of;
  for (std::size_t g = 0; g < group_sizes.size(); ++g) {
    for (std::size_t i = 0; i < group_sizes[g]; ++i) {
      group_of.push_back(g);
    }
  }
  std::vector<double> covering(n + 1, 0.0);
  std::vector<double> total(n + 1, 0.0);
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    std::vector<bool> hit(group_sizes.size(), false);
    std::size_t size = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1ULL) {
        ++size;
        hit[group_of[i]] = true;
      }
    }
    total[size] += 1.0;
    if (std::all_of(hit.begin(), hit.end(), [](bool b) { return b; })) {
      covering[size] += 1.0;
    }
  }
  std::vector<double> a(n + 1, 0.0);
  for (std::size_t j = 0; j <= n; ++j) {
    a[j] = covering[j] / total[j];
  }
  return a;
}

TEST(AnalyticCoverage, PartitionHandCalcAndBruteForce) {
  // n = 4, two groups of 2: A[2] = 1 - P(both picks in one group)
  //                              = 1 - 2/C(4,2) = 2/3.
  const auto a = coupon::analytic::coverage_partition(4, {2, 2});
  EXPECT_DOUBLE_EQ(a[0], 0.0);
  EXPECT_DOUBLE_EQ(a[1], 0.0);
  EXPECT_NEAR(a[2], 2.0 / 3.0, 1e-15);
  EXPECT_DOUBLE_EQ(a[3], 1.0);
  EXPECT_DOUBLE_EQ(a[4], 1.0);

  for (const auto& sizes :
       {std::vector<std::size_t>{2, 2, 2}, std::vector<std::size_t>{1, 2, 3},
        std::vector<std::size_t>{4, 1, 1, 2}}) {
    std::size_t n = 0;
    for (std::size_t s : sizes) {
      n += s;
    }
    const auto exact = coupon::analytic::coverage_partition(n, sizes);
    const auto brute = brute_force_partition(n, sizes);
    for (std::size_t j = 0; j <= n; ++j) {
      EXPECT_NEAR(exact[j], brute[j], 1e-12) << "j=" << j;
    }
  }
}

TEST(AnalyticCoverage, ZeroSizeGroupNeverCovers) {
  const auto a = coupon::analytic::coverage_partition(4, {2, 2, 0});
  for (double value : a) {
    EXPECT_DOUBLE_EQ(value, 0.0);
  }
}

TEST(AnalyticCoverage, SingletonGroupsAreTheWaitForAllThreshold) {
  // Uncoded's model is the partition DP over one single-worker set per
  // worker; its profile must be the wait-for-all indicator bit for bit.
  for (const std::size_t n : {1u, 2u, 7u, 50u, 100u}) {
    EXPECT_EQ(coupon::analytic::coverage_partition(
                  n, std::vector<std::size_t>(n, 1)),
              coupon::analytic::coverage_threshold(n, n))
        << "n=" << n;
  }
}

TEST(AnalyticCoverage, UnionMasksHandCalc) {
  // Workers cover units {0}, {1}, {0,1}: a single worker covers both
  // units only via the third (1/3); every pair covers.
  const auto a = coupon::analytic::coverage_union_masks({0b01, 0b10, 0b11}, 2);
  EXPECT_DOUBLE_EQ(a[0], 0.0);
  EXPECT_NEAR(a[1], 1.0 / 3.0, 1e-15);
  EXPECT_DOUBLE_EQ(a[2], 1.0);
  EXPECT_DOUBLE_EQ(a[3], 1.0);
}

TEST(AnalyticCoverage, UnionMasksMatchesPartition) {
  // Disjoint unit masks are exactly a partition structure.
  const std::vector<std::uint64_t> masks = {0b001, 0b001, 0b010,
                                            0b010, 0b100, 0b100};
  const auto by_masks = coupon::analytic::coverage_union_masks(masks, 3);
  const auto by_partition = coupon::analytic::coverage_partition(6, {2, 2, 2});
  for (std::size_t j = 0; j <= 6; ++j) {
    EXPECT_NEAR(by_masks[j], by_partition[j], 1e-12) << "j=" << j;
  }
}

TEST(AnalyticCoverage, BinomialRowExact) {
  const auto row = coupon::analytic::binomial_row(10);
  const double expected[] = {1,  10, 45, 120, 210, 252,
                             210, 120, 45, 10,  1};
  for (std::size_t k = 0; k <= 10; ++k) {
    EXPECT_DOUBLE_EQ(row[k], expected[k]) << "k=" << k;
  }
}

// Satellite: the exact finite-n partition profile converges to the
// classic with-replacement coupon collector, E[K] -> B * H_B, as the
// number of workers per block grows (Remark 1's asymptotic regime).
TEST(AnalyticCoverage, BalancedPartitionConvergesToCouponCollector) {
  constexpr std::size_t kBlocks = 4;
  const double limit = coupon::core::theory::coupon_expected_draws(kBlocks);
  double previous_gap = std::numeric_limits<double>::infinity();
  for (std::size_t per_block : {4u, 16u, 64u}) {
    const std::size_t n = kBlocks * per_block;
    const auto a = coupon::analytic::coverage_partition(
        n, std::vector<std::size_t>(kBlocks, per_block));
    double expected_k = 0.0;
    for (std::size_t k = 1; k <= n; ++k) {
      expected_k += static_cast<double>(k) * (a[k] - a[k - 1]);
    }
    const double gap = std::abs(expected_k - limit);
    EXPECT_LT(gap, previous_gap) << "n=" << n;
    previous_gap = gap;
  }
  // Without-replacement draws cover slightly faster; at 64 workers per
  // block the finite-n correction is already under 2%.
  EXPECT_LT(previous_gap / limit, 0.02);
}

// --- order-statistic engines ----------------------------------------------

TEST(AnalyticOrderStats, CompletionMeanClosedFormAtTwoDraws) {
  // R = 2: c_2 = max(t_(1) + s, t_(2)) + s and the Rényi gap is
  // Exp(rate), so E[c_2] = b + shift + 1/(2 rate) + 2 s + e^{-rate s}/rate.
  const double shift = 0.01, rate = 40.0, s = 0.02, b = 0.005;
  const double closed_form =
      b + shift + 1.0 / (2.0 * rate) + 2.0 * s + std::exp(-rate * s) / rate;
  const auto dist =
      ComputeDist::shifted_exp_mixture({{1.0, shift, rate}});
  const double by_quadrature =
      coupon::analytic::completion_mean_quadrature(dist, 2, 2, s, b);
  EXPECT_NEAR(by_quadrature, closed_form, 1e-9 * closed_form);
  const auto by_lindley =
      coupon::analytic::expected_completions_shifted_exp(shift, rate, 2, s, b);
  EXPECT_NEAR(by_lindley[1], closed_form, 2e-4 * closed_form);
}

TEST(AnalyticOrderStats, LindleyMatchesQuadrature) {
  const double shift = 0.01, rate = 95.0, s = 0.0032, b = 0.0;
  const std::size_t draws = 7;
  const auto dist =
      ComputeDist::shifted_exp_mixture({{1.0, shift, rate}});
  const auto lindley = coupon::analytic::expected_completions_shifted_exp(
      shift, rate, draws, s, b);
  ASSERT_EQ(lindley.size(), draws);
  for (std::size_t k = 1; k <= draws; ++k) {
    const double exact = coupon::analytic::completion_mean_quadrature(
        dist, draws, k, s, b);
    EXPECT_NEAR(lindley[k - 1], exact, 1e-3 * exact) << "k=" << k;
  }
}

TEST(AnalyticOrderStats, KthOrderStatisticMatchesHarmonicFormula) {
  // Satellite: the oracle's numeric E[X_(k)] reproduces theory.hpp's
  // exact Rényi harmonic form (and its k = n max special case).
  const double a = 1e-3, mu = 950.0;
  for (const std::size_t load : {1u, 10u}) {
    const auto dist = ComputeDist::shifted_exp_mixture(
        {{1.0, a * static_cast<double>(load),
          mu / static_cast<double>(load)}});
    for (const std::size_t n : {1u, 5u, 20u}) {
      for (std::size_t k = 1; k <= n; k += 2) {
        const double numeric =
            coupon::analytic::expected_kth_order_statistic(dist, n, k);
        const double exact =
            coupon::core::theory::expected_kth_order_statistic_shifted_exp(
                a, mu, static_cast<double>(load), n, k);
        EXPECT_NEAR(numeric, exact, 1e-8 * exact)
            << "n=" << n << " k=" << k << " r=" << load;
      }
    }
  }
}

TEST(AnalyticOrderStats, CompletionCdfIsADistribution) {
  const auto dist = ComputeDist::shifted_exp_mixture({{1.0, 0.02, 30.0}});
  const double s = 0.01, b = 0.001;
  double previous = 0.0;
  for (double x = 0.0; x <= 1.0; x += 0.02) {
    const double p = coupon::analytic::completion_cdf(dist, 5, 3, s, b, x);
    EXPECT_GE(p, previous - 1e-12);
    EXPECT_LE(p, 1.0 + 1e-12);
    previous = p;
  }
  // Below the hard floor b + shift + k*s the mass is exactly zero.
  EXPECT_DOUBLE_EQ(
      coupon::analytic::completion_cdf(dist, 5, 3, s, b, 0.02 + 3 * 0.01),
      0.0);
  EXPECT_GT(coupon::analytic::completion_cdf(dist, 5, 3, s, b, 1.0), 0.999);
}

// --- the sim-vs-analytic gate ---------------------------------------------

struct SimMoments {
  coupon::stats::OnlineStats time;
  coupon::stats::OnlineStats workers;
  double failure_rate = 0.0;
  std::size_t iterations = 0;
};

SimMoments run_sim(const coupon::core::Scheme& scheme,
                   const coupon::simulate::ClusterConfig& cluster,
                   std::size_t iterations, std::uint64_t seed) {
  coupon::stats::Rng rng(seed);
  coupon::simulate::RunOptions options;
  options.iterations = iterations;
  options.record_trace = true;
  const auto report =
      coupon::simulate::simulate_run(scheme, cluster, options, rng);
  SimMoments moments;
  moments.iterations = iterations;
  for (const auto& it : report.iterations) {
    moments.time.add(it.total_time);
    moments.workers.add(static_cast<double>(it.workers_heard));
  }
  moments.failure_rate = static_cast<double>(report.failures) /
                         static_cast<double>(iterations);
  return moments;
}

// z * sem gate (z = 5: one-in-3.5-million false-positive odds per
// comparison), with a tiny absolute floor for exactly-deterministic
// quantities (e.g. K under a wait-for-all scheme).
void expect_within_noise(double sample_mean, double exact, double sem,
                         const std::string& what) {
  EXPECT_NEAR(sample_mean, exact, 5.0 * sem + 1e-9) << what;
}

TEST(AnalyticOracleGate, EverySchemeMatchesSimulationAcrossDropRates) {
  constexpr std::size_t kN = 12, kM = 12, kR = 3;
  constexpr std::size_t kIterations = 30000;
  for (const std::string scheme_name :
       {"uncoded", "cr", "fr", "bcc", "simple_random"}) {
    const auto scheme = make_scheme(scheme_name, kN, kM, kR, 7);
    for (const double drop : {0.0, 0.1, 0.3}) {
      coupon::simulate::ClusterConfig cluster;
      cluster.compute_shift = 1e-3;
      cluster.compute_straggle = 50.0;
      cluster.unit_transfer_seconds = 2e-3;
      cluster.broadcast_seconds = 1e-4;
      cluster.drop_probability = drop;

      std::string reason;
      coupon::analytic::PredictOptions options;
      options.quantiles = false;
      const auto prediction =
          coupon::analytic::predict(*scheme, cluster, options, &reason);
      ASSERT_TRUE(prediction.has_value())
          << scheme_name << " drop=" << drop << ": " << reason;

      const auto sim = run_sim(*scheme, cluster, kIterations,
                               0x9000 + static_cast<std::uint64_t>(10 * drop));
      const std::string tag = scheme_name + " drop=" + std::to_string(drop);
      expect_within_noise(sim.time.mean(), prediction->expected_time,
                          sim.time.sem(), tag + " E[T]");
      expect_within_noise(sim.workers.mean(), prediction->expected_workers,
                          sim.workers.sem(), tag + " E[K]");
      const double p = prediction->failure_probability;
      const double fail_sem =
          std::sqrt(std::max(p * (1.0 - p), 1e-12) /
                    static_cast<double>(kIterations));
      expect_within_noise(sim.failure_rate, p, fail_sem, tag + " P(fail)");
    }
  }
}

TEST(AnalyticOracleGate, MarkovStationaryLawMatchesLongRunSimulation) {
  // The markov model initializes every worker from the stationary law,
  // so the per-iteration marginal is an exact two-component mixture;
  // cross-iteration correlation only widens the sample mean's effective
  // sem, hence the 12x (instead of 5x) gate.
  constexpr std::size_t kN = 10;
  constexpr std::size_t kIterations = 50000;
  coupon::simulate::ClusterConfig cluster;
  cluster.unit_transfer_seconds = 1e-3;
  cluster.latency_model = [](std::size_t n) {
    return std::make_unique<coupon::simulate::MarkovStragglerModel>(
        n, 1e-3, 50.0, 10.0, 0.05, 0.25);
  };
  const auto scheme = make_scheme("cr", kN, kN, 3, 11);
  std::string reason;
  coupon::analytic::PredictOptions options;
  options.quantiles = false;
  const auto prediction =
      coupon::analytic::predict(*scheme, cluster, options, &reason);
  ASSERT_TRUE(prediction.has_value()) << reason;
  const auto sim = run_sim(*scheme, cluster, kIterations, 0xAB);
  EXPECT_NEAR(sim.time.mean(), prediction->expected_time,
              12.0 * sim.time.sem());
  EXPECT_NEAR(sim.workers.mean(), prediction->expected_workers, 1e-9);
}

TEST(AnalyticOracleGate, BimodalMixtureMatchesSimulation) {
  constexpr std::size_t kIterations = 30000;
  coupon::simulate::ClusterConfig cluster;
  cluster.unit_transfer_seconds = 1e-3;
  cluster.latency_model = [](std::size_t) {
    return std::make_unique<coupon::simulate::BimodalSlowdownModel>(
        1e-3, 50.0, 0.1, 10.0);
  };
  const auto scheme = make_scheme("fr", 8, 8, 2, 3);
  std::string reason;
  coupon::analytic::PredictOptions options;
  options.quantiles = false;
  const auto prediction =
      coupon::analytic::predict(*scheme, cluster, options, &reason);
  ASSERT_TRUE(prediction.has_value()) << reason;
  const auto sim = run_sim(*scheme, cluster, kIterations, 0xBD);
  expect_within_noise(sim.time.mean(), prediction->expected_time,
                      sim.time.sem(), "bimodal E[T]");
  expect_within_noise(sim.workers.mean(), prediction->expected_workers,
                      sim.workers.sem(), "bimodal E[K]");
}

TEST(AnalyticOracleGate, ParetoMatchesClosedFormAndSimulation) {
  // R = 1: c_1 = b + X + s exactly, so the completion CDF must equal the
  // compute CDF shifted by b + s.
  const auto dist = ComputeDist::pareto(2e-3, 2.5);
  const double s = 1e-3, b = 5e-4;
  for (double x : {3e-3, 5e-3, 2e-2, 0.5}) {
    EXPECT_NEAR(coupon::analytic::completion_cdf(dist, 1, 1, s, b, x),
                dist.cdf(x - b - s), 1e-12);
  }
  // And the full pipeline against the simulator (shape 2.5: finite
  // variance, so the CLT sem gate applies).
  constexpr std::size_t kIterations = 30000;
  coupon::simulate::ClusterConfig cluster;
  cluster.unit_transfer_seconds = 1e-3;
  cluster.latency_model = [](std::size_t) {
    return std::make_unique<coupon::simulate::ParetoModel>(2e-3, 2.5);
  };
  const auto scheme = make_scheme("bcc", 8, 8, 2, 5);
  std::string reason;
  coupon::analytic::PredictOptions options;
  options.quantiles = false;
  const auto prediction =
      coupon::analytic::predict(*scheme, cluster, options, &reason);
  ASSERT_TRUE(prediction.has_value()) << reason;
  const auto sim = run_sim(*scheme, cluster, kIterations, 0xCE);
  expect_within_noise(sim.time.mean(), prediction->expected_time,
                      sim.time.sem(), "pareto E[T]");
}

// --- determinism and diagnostics ------------------------------------------

TEST(AnalyticOracle, RepeatedCallsAreBitwiseIdentical) {
  const auto scheme = make_scheme("bcc", 20, 20, 4, 42);
  coupon::simulate::ClusterConfig cluster;
  cluster.compute_straggle = 80.0;
  cluster.drop_probability = 0.05;
  const auto first = coupon::analytic::predict(*scheme, cluster);
  const auto second = coupon::analytic::predict(*scheme, cluster);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->expected_time, second->expected_time);
  EXPECT_EQ(first->expected_workers, second->expected_workers);
  EXPECT_EQ(first->failure_probability, second->failure_probability);
  EXPECT_EQ(first->p50, second->p50);
  EXPECT_EQ(first->p95, second->p95);
  EXPECT_EQ(first->p99, second->p99);
  EXPECT_LE(first->p50, first->p95);
  EXPECT_LE(first->p95, first->p99);
}

TEST(AnalyticOracle, UnsupportedPairsExplainThemselves) {
  std::string reason;
  coupon::analytic::PredictOptions options;
  options.quantiles = false;

  // Heterogeneous per-worker latency breaks exchangeability.
  {
    const auto scheme = make_scheme("cr", 4, 4, 2, 1);
    coupon::simulate::ClusterConfig cluster;
    cluster.worker_overrides.assign(4, {1e-3, 1.0});
    cluster.worker_overrides[0].compute_straggle = 5.0;
    EXPECT_FALSE(coupon::analytic::predict(*scheme, cluster, options, &reason)
                     .has_value());
    EXPECT_NE(reason.find("non-iid"), std::string::npos) << reason;
  }

  // An opaque (out-of-tree) latency model has no analytic law.
  {
    struct OpaqueModel final : coupon::simulate::LatencyModel {
      std::string_view name() const override { return "opaque"; }
      double sample_compute_seconds(const coupon::simulate::LatencyContext&,
                                    coupon::stats::Rng&) override {
        return 1.0;
      }
    };
    const auto scheme = make_scheme("cr", 4, 4, 2, 1);
    coupon::simulate::ClusterConfig cluster;
    cluster.latency_model = [](std::size_t) {
      return std::make_unique<OpaqueModel>();
    };
    EXPECT_FALSE(coupon::analytic::predict(*scheme, cluster, options, &reason)
                     .has_value());
    EXPECT_FALSE(reason.empty());
  }

  // simple_random beyond the exact 2^n enumeration bound.
  {
    const auto scheme = make_scheme("simple_random", 30, 30, 3, 1);
    coupon::simulate::ClusterConfig cluster;
    EXPECT_FALSE(coupon::analytic::predict(*scheme, cluster, options, &reason)
                     .has_value());
    EXPECT_NE(reason.find("simple_random"), std::string::npos) << reason;
  }
}

// --- closed-form family corners -------------------------------------------

TEST(AnalyticDist, WeibullLawReducesExactly) {
  coupon::simulate::LatencyLaw law;
  law.family = coupon::simulate::LatencyLaw::Family::kWeibull;
  law.shape = 1.7;
  law.scale_per_unit = 0.05;
  std::string reason;
  const auto dist = ComputeDist::from_law(law, 4.0, &reason);
  ASSERT_TRUE(dist.has_value()) << reason;
  EXPECT_FALSE(dist->is_pure_shifted_exp());
  const coupon::stats::Weibull ref{1.7, 0.05 * 4.0};
  EXPECT_DOUBLE_EQ(dist->cdf(0.1), ref.cdf(0.1));
  EXPECT_DOUBLE_EQ(dist->mean(), ref.mean());
  EXPECT_DOUBLE_EQ(dist->support_min(), 0.0);
  // The Weibull bracket is the exact (1 - eps)-quantile, so the tail sits
  // right on eps up to rounding.
  const double x = dist->upper_bracket(1e-6);
  EXPECT_LE(1.0 - dist->cdf(x), 1e-6 * (1.0 + 1e-9));
}

TEST(AnalyticDist, MeansMatchTheClosedForms) {
  const auto mix = ComputeDist::shifted_exp_mixture(
      {{0.25, 0.1, 2.0}, {0.75, 0.3, 0.5}});
  EXPECT_NEAR(mix.mean(), 0.25 * (0.1 + 0.5) + 0.75 * (0.3 + 2.0), 1e-12);
  const auto par = ComputeDist::pareto(0.2, 2.5);
  const coupon::stats::Pareto ref{0.2, 2.5};
  EXPECT_DOUBLE_EQ(par.mean(), ref.mean());
}

TEST(AnalyticDist, DegenerateMixtureWeightsCollapse) {
  // slow_probability 0 and 1 both collapse the bimodal mixture to one
  // pure shifted-exp component (the all-slow one scaled by the factor).
  coupon::simulate::LatencyLaw law;
  law.family = coupon::simulate::LatencyLaw::Family::kBimodal;
  law.compute_shift = 1e-3;
  law.compute_straggle = 40.0;
  law.slow_factor = 5.0;
  law.slow_probability = 0.0;
  std::string reason;
  const auto fast = ComputeDist::from_law(law, 2.0, &reason);
  ASSERT_TRUE(fast.has_value()) << reason;
  EXPECT_TRUE(fast->is_pure_shifted_exp());
  law.slow_probability = 1.0;
  const auto slow = ComputeDist::from_law(law, 2.0, &reason);
  ASSERT_TRUE(slow.has_value()) << reason;
  EXPECT_TRUE(slow->is_pure_shifted_exp());
  EXPECT_NEAR(slow->mean(), 5.0 * fast->mean(), 1e-12);
}

TEST(AnalyticDist, HeavyTailWithoutAMeanIsRefused) {
  coupon::simulate::LatencyLaw law;
  law.family = coupon::simulate::LatencyLaw::Family::kPareto;
  law.scale_per_unit = 0.1;
  law.shape = 1.0;  // E[X] diverges at shape <= 1
  std::string reason;
  EXPECT_FALSE(ComputeDist::from_law(law, 2.0, &reason).has_value());
  EXPECT_NE(reason.find("no finite mean"), std::string::npos) << reason;
}

// --- scheme-model validation corners ---------------------------------------

TEST(AnalyticSchemeModel, WrongConcreteTypeIsDeclinedByEveryModel) {
  // Each model dynamic_casts to the built-in implementation it knows how
  // to reduce; an out-of-tree scheme squatting on a registered name must
  // get a reason, not a bogus profile.
  const auto& registry = coupon::analytic::AnalyticModelRegistry::instance();
  const auto cr = make_scheme("cr", 6, 6, 2, 3);
  const auto uncoded = make_scheme("uncoded", 6, 6, 2, 3);
  for (const auto& name : registry.names()) {
    const auto* model = registry.find(name);
    ASSERT_NE(model, nullptr) << name;
    const coupon::core::Scheme& impostor = (name == "cr") ? *uncoded : *cr;
    const auto result = model->coverage_profile(impostor);
    EXPECT_FALSE(result.profile.has_value()) << name;
    EXPECT_NE(result.reason.find("is not the built-in"), std::string::npos)
        << name << ": " << result.reason;
  }
}

TEST(AnalyticSchemeModel, UnequalLoadsAreDeclinedWithTheSizes) {
  // uncoded with n not dividing m leaves some workers one unit heavier:
  // compute times are no longer iid and the reduction must refuse.
  const auto scheme = make_scheme("uncoded", 5, 7, 1, 3);
  const auto* model =
      coupon::analytic::AnalyticModelRegistry::instance().find("uncoded");
  ASSERT_NE(model, nullptr);
  const auto result = model->coverage_profile(*scheme);
  EXPECT_FALSE(result.profile.has_value());
  EXPECT_NE(result.reason.find("unequal per-worker loads"), std::string::npos)
      << result.reason;

  // BCC with r not dividing m gets unequal batch sizes (50 = 2*20 + 10),
  // so realized worker loads differ too — the bench tables render "-".
  const auto bcc = make_scheme("bcc", 50, 50, 20, 3);
  const auto* bcc_model =
      coupon::analytic::AnalyticModelRegistry::instance().find("bcc");
  ASSERT_NE(bcc_model, nullptr);
  const auto bcc_result = bcc_model->coverage_profile(*bcc);
  EXPECT_FALSE(bcc_result.profile.has_value());
  EXPECT_NE(bcc_result.reason.find("unequal per-worker loads"),
            std::string::npos)
      << bcc_result.reason;
}

TEST(AnalyticSchemeModel, RegistryRejectsNullAndDuplicateModels) {
  auto& registry = coupon::analytic::AnalyticModelRegistry::instance();
  EXPECT_THROW(registry.add(nullptr), std::invalid_argument);
  class Dup final : public coupon::analytic::SchemeRuntimeModel {
   public:
    std::string_view scheme_name() const override { return "uncoded"; }
    std::string_view description() const override { return "dup"; }
    coupon::analytic::SchemeModelResult coverage_profile(
        const coupon::core::Scheme&) const override {
      return {};
    }
  };
  EXPECT_THROW(registry.add(std::make_unique<Dup>()), std::invalid_argument);
}

// --- extreme drop rates ----------------------------------------------------

TEST(AnalyticPredictor, ExtremeDropRatesStayExact) {
  // drop > 0.5 exercises the light-end binomial recurrence; the sim
  // cross-check keeps it honest.
  const auto scheme = make_scheme("cr", 8, 8, 2, 11);
  coupon::simulate::ClusterConfig cluster;
  cluster.compute_shift = 1e-3;
  cluster.compute_straggle = 50.0;
  cluster.unit_transfer_seconds = 2e-3;
  cluster.broadcast_seconds = 1e-4;
  cluster.drop_probability = 0.6;
  std::string reason;
  const auto heavy = coupon::analytic::predict(*scheme, cluster, {}, &reason);
  ASSERT_TRUE(heavy.has_value()) << reason;
  EXPECT_GT(heavy->failure_probability, 0.05);
  const auto sim = run_sim(*scheme, cluster, 20000, 0xD00D);
  expect_within_noise(sim.time.mean(), heavy->expected_time, sim.time.sem(),
                      "drop=0.6 E[T]");

  // drop = 1: every iteration is the R = 0 atom — T = 0, guaranteed
  // coverage failure, and every quantile collapses to zero.
  cluster.drop_probability = 1.0;
  const auto none = coupon::analytic::predict(*scheme, cluster, {}, &reason);
  ASSERT_TRUE(none.has_value()) << reason;
  EXPECT_DOUBLE_EQ(none->expected_time, 0.0);
  EXPECT_DOUBLE_EQ(none->failure_probability, 1.0);
  EXPECT_TRUE(none->has_quantiles);
  EXPECT_DOUBLE_EQ(none->p99, 0.0);
}

TEST(AnalyticOracle, RegistryCoversEveryBuiltInScheme) {
  auto& registry = coupon::analytic::AnalyticModelRegistry::instance();
  for (const std::string& name :
       coupon::core::SchemeRegistry::instance().names()) {
    const auto* model = registry.find(name);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->scheme_name(), name);
    EXPECT_FALSE(model->description().empty());
  }
}

// --- the auto-tuner -------------------------------------------------------

TEST(AnalyticPredictor, RankingMatchesMeasuredOrderOnScenarioOne) {
  // Paper Table I grid: n = m = 50, r = 10, schemes uncoded / cr / bcc.
  // The predicted E[T] ordering must match the measured ordering of
  // 400-iteration simulated runs built with identical seeding.
  const auto scenario = coupon::driver::ec2_scenario_one();
  const auto cluster = coupon::simulate::ec2_cluster();
  constexpr std::size_t kIterations = 400;
  std::vector<std::pair<std::string, double>> measured;
  std::vector<std::pair<std::string, double>> predicted;
  for (const std::string name : {"uncoded", "cr", "bcc"}) {
    const auto scheme = make_scheme(name, scenario.num_workers,
                                    scenario.num_units, scenario.load,
                                    scenario.seed);
    coupon::analytic::PredictOptions options;
    options.quantiles = false;
    std::string reason;
    const auto prediction =
        coupon::analytic::predict(*scheme, cluster, options, &reason);
    ASSERT_TRUE(prediction.has_value()) << name << ": " << reason;
    predicted.emplace_back(name, prediction->expected_time);
    const auto sim =
        run_sim(*scheme, cluster, kIterations, scenario.seed);
    measured.emplace_back(name, sim.time.mean());
  }
  const auto by_time = [](const auto& a, const auto& b) {
    return a.second < b.second;
  };
  std::sort(measured.begin(), measured.end(), by_time);
  std::sort(predicted.begin(), predicted.end(), by_time);
  for (std::size_t i = 0; i < measured.size(); ++i) {
    EXPECT_EQ(measured[i].first, predicted[i].first) << "rank " << i;
  }
  EXPECT_EQ(predicted.front().first, "bcc");
}

TEST(AnalyticPredictor, RankDeduplicatesAndReportsUnsupported) {
  coupon::simulate::ClusterConfig cluster;
  const coupon::analytic::Predictor predictor(
      cluster, [](const coupon::analytic::CandidateSpec& spec,
                  std::string* reason) -> std::unique_ptr<coupon::core::Scheme> {
        coupon::core::SchemeConfig config;
        config.num_workers = 12;
        config.num_units = 12;
        config.load = spec.load;
        coupon::stats::Rng rng(3);
        try {
          return coupon::core::SchemeRegistry::instance().create(spec.scheme,
                                                                 config, rng);
        } catch (const std::exception& error) {
          if (reason != nullptr) {
            *reason = error.what();
          }
          return nullptr;
        }
      });
  // uncoded ignores the requested r (its realized load is m/n), so the
  // two candidates collapse to one row; fr at r = 5 (5 does not divide
  // 12) is structurally invalid and must surface a reason.
  std::vector<coupon::analytic::UnsupportedCandidate> unsupported;
  const auto ranked = predictor.rank({{"uncoded", 2},
                                      {"uncoded", 3},
                                      {"fr", 5}},
                                     {}, 0, &unsupported);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].scheme, "uncoded");
  ASSERT_EQ(unsupported.size(), 1u);
  EXPECT_EQ(unsupported[0].spec.scheme, "fr");
  EXPECT_FALSE(unsupported[0].reason.empty());
}

// --- the driver bridge (--predict / --scheme auto) ------------------------

TEST(DriverPredict, AutoResolvesToTheRankedBestOnScenarioOne) {
  // On scenario one at r = 10 the full candidate set ranks fr first:
  // its deterministic block replication covers slightly better than
  // BCC's random batch choices at equal load (and far better than the
  // wait-for-all schemes). "auto" must agree with the ranking's head.
  const auto config = coupon::driver::ec2_scenario_one();
  const std::string picked = coupon::driver::resolve_auto_scheme(config);
  EXPECT_EQ(picked, "fr");
  auto all = config;
  all.scheme = "all";
  const auto report = coupon::driver::predict_report(
      all, coupon::driver::predict_candidates(all, {}), /*quantiles=*/false);
  ASSERT_FALSE(report.ranked.empty());
  EXPECT_EQ(report.ranked.front().scheme, picked);
}

TEST(DriverPredict, UnknownSchemeGetsDidYouMean) {
  auto config = coupon::driver::ec2_scenario_one();
  config.scheme = "bbc";  // plausible typo for "bcc"
  const auto report = coupon::driver::predict_report(
      config, coupon::driver::predict_candidates(config, {}),
      /*quantiles=*/false);
  EXPECT_TRUE(report.ranked.empty());
  ASSERT_EQ(report.unsupported.size(), 1u);
  EXPECT_NE(report.unsupported[0].reason.find("did you mean 'bcc'"),
            std::string::npos)
      << report.unsupported[0].reason;
}

TEST(DriverPredict, ReportIsDeterministicAndRendered) {
  auto config = coupon::driver::ec2_scenario_one();
  config.scheme = "all";
  const auto candidates =
      coupon::driver::predict_candidates(config, {5, 10});
  const auto first = coupon::driver::predict_report(config, candidates);
  const auto second = coupon::driver::predict_report(config, candidates);
  EXPECT_EQ(coupon::driver::render_predict_report(first),
            coupon::driver::render_predict_report(second));
  ASSERT_FALSE(first.ranked.empty());
  EXPECT_EQ(first.ranked.front().scheme, "fr");
  // Quantiles are filled for the top rows and ordered.
  EXPECT_TRUE(first.ranked.front().has_quantiles);
  EXPECT_LE(first.ranked.front().p50, first.ranked.front().p99);
}

}  // namespace
