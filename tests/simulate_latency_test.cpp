// Tests for the pluggable latency-model subsystem: statistical property
// checks of every model against its closed form (fixed seeds), the
// bit-identity of ShiftedExpModel with the legacy hard-coded draw, trace
// replay, and the ClusterConfig validation rejection paths.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "simulate/simulate.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "util/assert.hpp"

namespace coupon::simulate {
namespace {

// --- ShiftedExpModel: the bit-identical default ---------------------------

TEST(ShiftedExpModel, ReproducesTheLegacyDrawExactly) {
  // One sample == one ShiftedExponential::for_load draw, same stream.
  stats::Rng model_rng(42), legacy_rng(42);
  ShiftedExpModel model(/*compute_shift=*/1e-3, /*compute_straggle=*/100.0);
  for (std::size_t i = 0; i < 100; ++i) {
    const double load = 1.0 + static_cast<double>(i % 7);
    const double sampled =
        model.sample_compute_seconds({i % 5, i, load}, model_rng);
    const double legacy =
        stats::ShiftedExponential::for_load(1e-3, 100.0, load)
            .sample(legacy_rng);
    ASSERT_DOUBLE_EQ(sampled, legacy) << i;
  }
}

TEST(ShiftedExpModel, HonoursPerWorkerOverrides) {
  stats::Rng model_rng(7), legacy_rng(7);
  const std::vector<WorkerLatency> overrides = {{1.0, 1e6}, {5.0, 2.0}};
  ShiftedExpModel model(1e-3, 100.0, overrides);
  for (std::size_t worker = 0; worker < 2; ++worker) {
    const double sampled =
        model.sample_compute_seconds({worker, 0, 3.0}, model_rng);
    const double legacy =
        stats::ShiftedExponential::for_load(overrides[worker].compute_shift,
                                            overrides[worker].compute_straggle,
                                            3.0)
            .sample(legacy_rng);
    EXPECT_DOUBLE_EQ(sampled, legacy);
  }
}

TEST(ShiftedExpModel, ExplicitFactoryMatchesTheDefaultPathBitForBit) {
  // A config with no factory and one whose factory builds the same
  // ShiftedExpModel must produce identical traces: the refactor's
  // "default == paper's law" claim, checked through the full simulator.
  stats::Rng rng_a(11), rng_b(11);
  core::SchemeConfig config{20, 20, 5, false};
  auto scheme_a = core::SchemeRegistry::instance().create("bcc", config, rng_a);
  auto scheme_b = core::SchemeRegistry::instance().create("bcc", config, rng_b);

  ClusterConfig implicit;
  implicit.compute_straggle = 50.0;
  ClusterConfig explicit_factory = implicit;
  explicit_factory.latency_model = [](std::size_t) {
    return std::make_unique<ShiftedExpModel>(1e-3, 50.0);
  };

  const RunOptions options{.iterations = 20, .record_trace = true};
  const auto run_a = simulate_run(*scheme_a, implicit, options, rng_a);
  const auto run_b = simulate_run(*scheme_b, explicit_factory, options, rng_b);
  ASSERT_EQ(run_a.iterations.size(), run_b.iterations.size());
  for (std::size_t t = 0; t < run_a.iterations.size(); ++t) {
    EXPECT_DOUBLE_EQ(run_a.iterations[t].total_time,
                     run_b.iterations[t].total_time);
    EXPECT_EQ(run_a.iterations[t].workers_heard,
              run_b.iterations[t].workers_heard);
  }
}

TEST(MakeLatencyModel, DefaultsToShiftedExp) {
  const auto model = make_latency_model(ClusterConfig{}, 4);
  EXPECT_EQ(model->name(), "shifted_exp");
}

// --- ParetoModel ----------------------------------------------------------

TEST(ParetoModel, MomentsMatchClosedForm) {
  // Pareto(scale = 2e-3 * 5, shape = 3): finite mean and variance.
  ParetoModel model(/*scale_per_unit=*/2e-3, /*shape=*/3.0);
  const stats::Pareto reference{0.01, 3.0};
  stats::Rng rng(101);
  stats::OnlineStats s;
  for (int i = 0; i < 200000; ++i) {
    const double x = model.sample_compute_seconds({0, 0, 5.0}, rng);
    ASSERT_GE(x, reference.scale);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), reference.mean(), 3e-4);
  EXPECT_NEAR(s.variance(), reference.variance(), 5e-5);
}

TEST(ParetoModel, SamplesPassAKsTestAgainstTheirCdf) {
  ParetoModel model(1e-3, 1.5);
  const stats::Pareto reference{4e-3, 1.5};  // load 4
  stats::Rng rng(103);
  std::vector<double> samples(4000);
  for (auto& x : samples) {
    x = model.sample_compute_seconds({1, 2, 4.0}, rng);
  }
  const double ks = stats::ks_distance(
      samples, [&reference](double t) { return reference.cdf(t); });
  // 95% acceptance line for n = 4000 is 1.36/sqrt(n) ~ 0.0215.
  EXPECT_LT(ks, 0.025);
}

// --- WeibullModel ---------------------------------------------------------

TEST(WeibullModel, MomentsMatchClosedForm) {
  WeibullModel model(/*shape=*/1.5, /*scale_per_unit=*/1e-2);
  const stats::Weibull reference{1.5, 0.02};  // load 2
  stats::Rng rng(107);
  stats::OnlineStats s;
  for (int i = 0; i < 200000; ++i) {
    s.add(model.sample_compute_seconds({0, 0, 2.0}, rng));
  }
  EXPECT_NEAR(s.mean(), reference.mean(), 2e-4);
  EXPECT_NEAR(s.variance(), reference.variance(), 2e-5);
}

TEST(WeibullModel, SamplesPassAKsTestAgainstTheirCdf) {
  WeibullModel model(0.7, 2e-3);
  const stats::Weibull reference{0.7, 2e-2};  // load 10
  stats::Rng rng(109);
  std::vector<double> samples(4000);
  for (auto& x : samples) {
    x = model.sample_compute_seconds({3, 1, 10.0}, rng);
  }
  const double ks = stats::ks_distance(
      samples, [&reference](double t) { return reference.cdf(t); });
  EXPECT_LT(ks, 0.025);
}

// --- BimodalSlowdownModel -------------------------------------------------

TEST(BimodalSlowdownModel, MixtureMeanMatchesClosedForm) {
  const double p = 0.2, s_factor = 5.0, a = 1e-3, mu = 2.0, load = 4.0;
  BimodalSlowdownModel model(a, mu, p, s_factor);
  stats::Rng rng(113);
  stats::OnlineStats s;
  for (int i = 0; i < 200000; ++i) {
    s.add(model.sample_compute_seconds({0, 0, load}, rng));
  }
  const double base_mean = a * load + load / mu;
  EXPECT_NEAR(s.mean(), (1.0 + p * (s_factor - 1.0)) * base_mean, 0.05);
}

TEST(BimodalSlowdownModel, SamplesPassAKsTestAgainstTheMixtureCdf) {
  const double p = 0.3, s_factor = 10.0, load = 2.0;
  BimodalSlowdownModel model(1e-3, 1.0, p, s_factor);
  const auto base = stats::ShiftedExponential::for_load(1e-3, 1.0, load);
  stats::Rng rng(127);
  std::vector<double> samples(4000);
  for (auto& x : samples) {
    x = model.sample_compute_seconds({0, 0, load}, rng);
  }
  // X = B with prob 1-p, s*B with prob p: F(t) = (1-p)F_B(t) + pF_B(t/s).
  const double ks = stats::ks_distance(samples, [&](double t) {
    return (1.0 - p) * base.cdf(t) + p * base.cdf(t / s_factor);
  });
  EXPECT_LT(ks, 0.025);
}

TEST(BimodalSlowdownModel, ZeroProbabilityDegeneratesToShiftedExp) {
  stats::Rng rng_a(5), rng_b(5);
  BimodalSlowdownModel bimodal(1e-3, 10.0, 0.0, 7.0);
  ShiftedExpModel base(1e-3, 10.0);
  for (int i = 0; i < 50; ++i) {
    // The Bernoulli(0) draw consumes one uniform; mirror it exactly.
    (void)rng_b.bernoulli(0.0);
    EXPECT_DOUBLE_EQ(bimodal.sample_compute_seconds({0, 0, 3.0}, rng_a),
                     base.sample_compute_seconds({0, 0, 3.0}, rng_b));
  }
}

// --- MarkovStragglerModel -------------------------------------------------

TEST(MarkovStragglerModel, StationaryFractionAndPersistenceMatchTheChain) {
  const std::size_t n = 400;
  const double p_enter = 0.05, p_exit = 0.25;
  MarkovStragglerModel model(n, 1e-3, 1.0, 10.0, p_enter, p_exit);
  stats::Rng rng(131);

  std::size_t slow_observations = 0, total = 0;
  std::size_t slow_to_slow = 0, slow_previous = 0;
  std::vector<char> previous(n, 0);
  const std::size_t iterations = 500;
  for (std::size_t t = 0; t < iterations; ++t) {
    model.begin_iteration(t, rng);
    const auto& states = model.slow_states();
    ASSERT_EQ(states.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      total += 1;
      slow_observations += states[i] != 0;
      if (t > 0 && previous[i] != 0) {
        slow_previous += 1;
        slow_to_slow += states[i] != 0;
      }
      previous[i] = states[i];
    }
  }
  const double stationary = p_enter / (p_enter + p_exit);
  EXPECT_NEAR(static_cast<double>(slow_observations) /
                  static_cast<double>(total),
              stationary, 0.01);
  // Persistence: P(slow at t+1 | slow at t) = 1 - p_exit, far above the
  // stationary fraction — slowness is correlated across iterations.
  EXPECT_NEAR(static_cast<double>(slow_to_slow) /
                  static_cast<double>(slow_previous),
              1.0 - p_exit, 0.02);
}

TEST(MarkovStragglerModel, SlowWorkersDrawInflatedLatencies) {
  // p_enter = 1, p_exit ~ 0: every worker is slow from the first
  // iteration on, so every draw is slow_factor * shifted-exp.
  const double slow_factor = 10.0;
  MarkovStragglerModel model(4, 1e-3, 1.0, slow_factor, 1.0, 1e-9);
  stats::Rng rng(137);
  model.begin_iteration(0, rng);
  stats::Rng mirror = rng;  // states drawn; draws now mirror shifted-exp
  ShiftedExpModel base(1e-3, 1.0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(model.sample_compute_seconds({i, 0, 2.0}, rng),
                     slow_factor *
                         base.sample_compute_seconds({i, 0, 2.0}, mirror));
  }
}

TEST(MarkovStragglerModel, PersistenceRaisesRunVariabilityOverBursty) {
  // Same marginal slow fraction (1/6), but markov holds workers slow for
  // 1/p_exit = 4 consecutive iterations: per-iteration totals should be
  // more variable than the memoryless bimodal equivalent.
  stats::Rng rng_markov(139), rng_bimodal(139);
  core::SchemeConfig config{30, 30, 1, false};
  auto scheme_m =
      core::SchemeRegistry::instance().create("uncoded", config, rng_markov);
  auto scheme_b =
      core::SchemeRegistry::instance().create("uncoded", config, rng_bimodal);

  ClusterConfig markov;
  markov.latency_model = [](std::size_t n) {
    return std::make_unique<MarkovStragglerModel>(n, 1e-3, 1.0, 20.0,
                                                  1.0 / 20.0, 0.25);
  };
  ClusterConfig bimodal;
  bimodal.latency_model = [](std::size_t) {
    return std::make_unique<BimodalSlowdownModel>(1e-3, 1.0, 1.0 / 6.0,
                                                  20.0);
  };

  const RunOptions options{.iterations = 300, .record_trace = true};
  const auto run_m = simulate_run(*scheme_m, markov, options, rng_markov);
  const auto run_b = simulate_run(*scheme_b, bimodal, options, rng_bimodal);
  stats::OnlineStats totals_m, totals_b;
  for (const auto& it : run_m.iterations) {
    totals_m.add(it.total_time);
  }
  for (const auto& it : run_b.iterations) {
    totals_b.add(it.total_time);
  }
  // Uncoded waits for the max: with ~5 slow workers expected either way,
  // per-iteration means are comparable but not the correlation structure.
  // This is a smoke-level statistical assertion, not a sharp bound.
  EXPECT_GT(totals_m.mean(), 0.0);
  EXPECT_GT(totals_b.mean(), 0.0);
  EXPECT_GT(run_m.total_time, run_b.total_time * 0.5);
}

// --- TraceReplayModel -----------------------------------------------------

class TraceFile {
 public:
  explicit TraceFile(const std::string& text,
                     const std::string& name = "latency_trace_test.csv")
      : path_(name) {
    std::ofstream out(path_);
    out << text;
  }
  ~TraceFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(TraceReplayModel, ReplaysRowsAndWrapsAround) {
  TraceFile file("# per-worker seconds\n0.01,0.02,0.03\n\n0.04,0.05,0.06\n");
  TraceReplayModel model(file.path(), 3);
  EXPECT_EQ(model.num_rows(), 2u);
  stats::Rng rng(1);
  EXPECT_DOUBLE_EQ(model.sample_compute_seconds({0, 0, 5.0}, rng), 0.01);
  EXPECT_DOUBLE_EQ(model.sample_compute_seconds({2, 0, 5.0}, rng), 0.03);
  EXPECT_DOUBLE_EQ(model.sample_compute_seconds({1, 1, 5.0}, rng), 0.05);
  // Iteration 2 wraps back to row 0; the load is ignored.
  EXPECT_DOUBLE_EQ(model.sample_compute_seconds({0, 2, 99.0}, rng), 0.01);
  // No randomness consumed: the stream is untouched.
  stats::Rng fresh(1);
  EXPECT_EQ(rng.next_u64(), fresh.next_u64());
}

TEST(TraceReplayModel, RejectsMalformedTraces) {
  EXPECT_THROW(TraceReplayModel("does_not_exist.csv", 2),
               std::invalid_argument);
  {
    TraceFile wrong_width("0.01,0.02\n", "trace_wrong_width.csv");
    EXPECT_THROW(TraceReplayModel(wrong_width.path(), 3),
                 std::invalid_argument);
  }
  {
    TraceFile junk("0.01,banana,0.03\n", "trace_junk.csv");
    EXPECT_THROW(TraceReplayModel(junk.path(), 3), std::invalid_argument);
  }
  {
    TraceFile negative("0.01,-0.5,0.03\n", "trace_negative.csv");
    EXPECT_THROW(TraceReplayModel(negative.path(), 3),
                 std::invalid_argument);
  }
  {
    TraceFile empty("# only a comment\n\n", "trace_empty.csv");
    EXPECT_THROW(TraceReplayModel(empty.path(), 3), std::invalid_argument);
  }
  {
    // std::stod parses "inf"/"nan"; an infinite latency would poison the
    // run totals, so the parser must reject non-finite values too.
    TraceFile infinite("0.01,inf,0.03\n", "trace_inf.csv");
    EXPECT_THROW(TraceReplayModel(infinite.path(), 3),
                 std::invalid_argument);
    TraceFile nan_value("0.01,nan,0.03\n", "trace_nan.csv");
    EXPECT_THROW(TraceReplayModel(nan_value.path(), 3),
                 std::invalid_argument);
  }
}

TEST(SimulateIteration, NonFiniteModelDrawsAreRejected) {
  // A broken user model returning +inf must trip the simulator's sample
  // sanity check, not silently produce total_time=inf / comm_time=nan.
  class InfiniteModel final : public LatencyModel {
   public:
    std::string_view name() const override { return "infinite"; }
    double sample_compute_seconds(const LatencyContext&,
                                  stats::Rng&) override {
      return std::numeric_limits<double>::infinity();
    }
  };
  stats::Rng rng(41);
  core::SchemeConfig config{3, 3, 1, false};
  auto scheme = core::SchemeRegistry::instance().create("uncoded", config, rng);
  ClusterConfig cluster;
  cluster.latency_model = [](std::size_t) {
    return std::make_unique<InfiniteModel>();
  };
  EXPECT_THROW(simulate_iteration(*scheme, cluster, rng),
               coupon::AssertionError);
}

TEST(TraceReplayModel, DrivesTheSimulatorDeterministically) {
  TraceFile file("0.2,0.01,0.01,0.01\n0.01,0.2,0.01,0.01\n",
                 "trace_sim_test.csv");
  stats::Rng rng(17);
  core::SchemeConfig config{4, 4, 1, false};
  auto scheme = core::SchemeRegistry::instance().create("uncoded", config, rng);
  ClusterConfig cluster;
  const std::string path = file.path();
  cluster.latency_model = [path](std::size_t n) {
    return std::make_unique<TraceReplayModel>(path, n);
  };
  const RunOptions options{.iterations = 4, .record_trace = true};
  const auto run = simulate_run(*scheme, cluster, options, rng);
  ASSERT_EQ(run.iterations.size(), 4u);
  // Uncoded waits for the slowest worker: 0.2 s every iteration, from a
  // different worker in alternating rows.
  for (const auto& it : run.iterations) {
    EXPECT_TRUE(it.recovered);
    EXPECT_DOUBLE_EQ(it.compute_time, 0.2);
  }
}

// --- ClusterConfig validation ---------------------------------------------

ClusterConfig valid_cluster() {
  ClusterConfig c;
  c.compute_shift = 1e-3;
  c.compute_straggle = 100.0;
  return c;
}

TEST(ValidateClusterConfig, AcceptsTheDefaults) {
  EXPECT_NO_THROW(validate_cluster_config(ClusterConfig{}, 8));
  EXPECT_NO_THROW(validate_cluster_config(valid_cluster(), 8));
}

TEST(ValidateClusterConfig, RejectsOutOfRangeKnobs) {
  auto drop_high = valid_cluster();
  drop_high.drop_probability = 1.5;
  EXPECT_THROW(validate_cluster_config(drop_high, 4), coupon::AssertionError);

  auto drop_negative = valid_cluster();
  drop_negative.drop_probability = -0.1;
  EXPECT_THROW(validate_cluster_config(drop_negative, 4),
               coupon::AssertionError);

  auto negative_shift = valid_cluster();
  negative_shift.compute_shift = -1e-3;
  EXPECT_THROW(validate_cluster_config(negative_shift, 4),
               coupon::AssertionError);

  auto zero_straggle = valid_cluster();
  zero_straggle.compute_straggle = 0.0;
  EXPECT_THROW(validate_cluster_config(zero_straggle, 4),
               coupon::AssertionError);

  auto negative_transfer = valid_cluster();
  negative_transfer.unit_transfer_seconds = -1.0;
  EXPECT_THROW(validate_cluster_config(negative_transfer, 4),
               coupon::AssertionError);

  auto negative_broadcast = valid_cluster();
  negative_broadcast.broadcast_seconds = -1.0;
  EXPECT_THROW(validate_cluster_config(negative_broadcast, 4),
               coupon::AssertionError);

  auto bad_override = valid_cluster();
  bad_override.worker_overrides.assign(4, WorkerLatency{1e-3, 1.0});
  bad_override.worker_overrides[2].compute_straggle = 0.0;
  EXPECT_THROW(validate_cluster_config(bad_override, 4),
               coupon::AssertionError);
}

TEST(ValidateClusterConfig, SimulatorRejectsBadConfigsBeforeSampling) {
  stats::Rng rng(23);
  core::SchemeConfig config{4, 4, 1, false};
  auto scheme = core::SchemeRegistry::instance().create("uncoded", config, rng);
  auto cluster = valid_cluster();
  cluster.drop_probability = 2.0;
  EXPECT_THROW(simulate_iteration(*scheme, cluster, rng),
               coupon::AssertionError);
  const RunOptions options{.iterations = 3, .record_trace = true};
  EXPECT_THROW(simulate_run(*scheme, cluster, options, rng),
               coupon::AssertionError);
}

TEST(ValidateClusterConfig, NullFactoryResultIsRejected) {
  auto cluster = valid_cluster();
  cluster.latency_model = [](std::size_t) {
    return std::unique_ptr<LatencyModel>();
  };
  EXPECT_THROW(make_latency_model(cluster, 4), coupon::AssertionError);
}

// --- model parameter validation -------------------------------------------

TEST(LatencyModels, ConstructorsRejectBadParameters) {
  EXPECT_THROW(ShiftedExpModel(-1.0, 1.0), coupon::AssertionError);
  EXPECT_THROW(ShiftedExpModel(1.0, 0.0), coupon::AssertionError);
  EXPECT_THROW(ParetoModel(0.0, 1.5), coupon::AssertionError);
  EXPECT_THROW(ParetoModel(1e-3, 0.0), coupon::AssertionError);
  EXPECT_THROW(WeibullModel(0.0, 1e-3), coupon::AssertionError);
  EXPECT_THROW(WeibullModel(1.0, 0.0), coupon::AssertionError);
  EXPECT_THROW(BimodalSlowdownModel(1e-3, 1.0, 1.5, 10.0),
               coupon::AssertionError);
  EXPECT_THROW(BimodalSlowdownModel(1e-3, 1.0, 0.1, 0.5),
               coupon::AssertionError);
  EXPECT_THROW(MarkovStragglerModel(4, 1e-3, 1.0, 10.0, 0.1, 0.0),
               coupon::AssertionError);
  EXPECT_THROW(MarkovStragglerModel(4, 1e-3, 1.0, 0.5, 0.1, 0.2),
               coupon::AssertionError);
}

}  // namespace
}  // namespace coupon::simulate
