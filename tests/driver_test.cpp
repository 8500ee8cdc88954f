// Tests for the experiment-driver layer: the scenario registry, runtime
// factory, config plumbing (CLI flags, the paper's EC2 presets, the
// cluster override), the paper's Table I/II shape on those presets, and
// the RunRecord-producing entry points with their CSV/JSONL sinks.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scheme_registry.hpp"
#include "core/theory.hpp"
#include "driver/driver.hpp"
#include "driver/runtime_registry.hpp"
#include "driver/sweep.hpp"
#include "simulate/cluster_config.hpp"
#include "util/assert.hpp"

namespace driver = coupon::driver;

TEST(ScenarioRegistry, EveryListedScenarioIsConstructible) {
  const auto& registry = driver::ScenarioRegistry::instance();
  for (const auto& name : registry.names()) {
    const auto* entry = registry.find(name);
    ASSERT_NE(entry, nullptr) << name;
    if (!entry->builder) {
      // Parameterized-only entries (trace:<path>) need an argument.
      EXPECT_EQ(registry.resolve(name), nullptr) << name;
      EXPECT_THROW(registry.build(name, 40), std::invalid_argument) << name;
      continue;
    }
    ASSERT_EQ(registry.resolve(name), entry) << name;
    const auto scenario = registry.build(name, 40);
    EXPECT_EQ(scenario.name, name);
    EXPECT_FALSE(scenario.description.empty());
  }
  EXPECT_EQ(registry.resolve("bogus"), nullptr);
}

TEST(ScenarioRegistry, BuildThrowsOnUnknownNameListingChoices) {
  try {
    driver::ScenarioRegistry::instance().build("bogus", 10);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("bogus"), std::string::npos);
    EXPECT_NE(message.find("shifted_exp"), std::string::npos);
    EXPECT_NE(message.find("no_stragglers"), std::string::npos);
  }
}

TEST(ScenarioRegistry, DuplicateAndMalformedRegistrationsRejected) {
  auto& registry = driver::ScenarioRegistry::instance();
  driver::ScenarioEntry dup;
  dup.name = "shifted_exp";
  dup.builder = [](std::size_t) { return driver::Scenario{}; };
  EXPECT_THROW(registry.add(dup), std::invalid_argument);

  driver::ScenarioEntry unnamed;
  unnamed.builder = [](std::size_t) { return driver::Scenario{}; };
  EXPECT_THROW(registry.add(unnamed), std::invalid_argument);

  driver::ScenarioEntry no_builder;
  no_builder.name = "no_builder_scenario";
  EXPECT_THROW(registry.add(no_builder), std::invalid_argument);
}

TEST(ScenarioRegistry, UnknownNameDiagnosticSuggestsNearestScenario) {
  const std::string message =
      driver::ScenarioRegistry::instance().unknown_message("shifted_exq");
  EXPECT_NE(message.find("did you mean 'shifted_exp'?"), std::string::npos)
      << message;
  const std::string far =
      driver::ScenarioRegistry::instance().unknown_message("qqqqqqqq");
  EXPECT_EQ(far.find("did you mean"), std::string::npos) << far;
}

TEST(ScenarioRegistry, LatencyModelScenariosBuildTheirModels) {
  // Each new-model scenario's cluster carries a latency_model factory
  // producing the advertised model type.
  const struct {
    const char* scenario;
    const char* model;
  } expectations[] = {{"heavy_tail", "pareto"},
                      {"weibull", "weibull"},
                      {"bursty", "bimodal"},
                      {"markov", "markov"}};
  for (const auto& expected : expectations) {
    const auto scenario =
        driver::ScenarioRegistry::instance().build(expected.scenario, 16);
    EXPECT_TRUE(scenario.sim_only) << expected.scenario;
    ASSERT_TRUE(static_cast<bool>(scenario.cluster.latency_model))
        << expected.scenario;
    const auto model =
        coupon::simulate::make_latency_model(scenario.cluster, 16);
    EXPECT_EQ(model->name(), expected.model) << expected.scenario;
  }
}

TEST(ScenarioRegistry, LatencyModelScenariosRunEndToEnd) {
  for (const char* scenario : {"heavy_tail", "weibull", "bursty", "markov"}) {
    driver::ExperimentConfig config;
    config.scenario = scenario;
    config.num_workers = 12;
    config.num_units = 12;
    config.load = 3;
    config.iterations = 6;
    const auto record = driver::run_experiment(config);
    EXPECT_EQ(record.scenario, scenario);
    EXPECT_EQ(record.trace.size(), 6u) << scenario;
    EXPECT_GT(record.total_time, 0.0) << scenario;
    EXPECT_EQ(record.failures, 0u) << scenario;
  }
}

TEST(ScenarioRegistry, ParameterizedTraceScenarioResolvesAndRuns) {
  auto& registry = driver::ScenarioRegistry::instance();
  // Bare selection of a parameterized entry: resolvable? no; build throws
  // with the usage hint instead of "unknown".
  EXPECT_EQ(registry.resolve("trace"), nullptr);
  try {
    registry.build("trace", 4);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("trace:<arg>"), std::string::npos)
        << e.what();
  }
  // An argument on a non-parameterized scenario stays unknown.
  EXPECT_EQ(registry.resolve("lossy:0.5"), nullptr);
  EXPECT_THROW(registry.build("lossy:0.5", 4), std::invalid_argument);

  // The real thing: write a trace, select it as trace:<path>, run it.
  const std::string path = "driver_trace_scenario_test.csv";
  {
    std::ofstream out(path);
    out << "0.05,0.01,0.01,0.01\n";
  }
  ASSERT_NE(registry.resolve("trace:" + path), nullptr);
  driver::ExperimentConfig config;
  config.scheme = "uncoded";
  config.scenario = "trace:" + path;
  config.num_workers = 4;
  config.num_units = 4;
  config.load = 1;
  config.iterations = 3;
  const auto record = driver::run_experiment(config);
  EXPECT_EQ(record.scenario, "trace:" + path);
  ASSERT_EQ(record.trace.size(), 3u);
  for (const auto& it : record.trace) {
    EXPECT_DOUBLE_EQ(it.compute_time, 0.05);  // the slowest trace column
  }
  std::remove(path.c_str());

  // A missing trace file surfaces as a clear error at run time.
  driver::ExperimentConfig missing = config;
  missing.scenario = "trace:no_such_file.csv";
  EXPECT_THROW(driver::run_experiment(missing), std::invalid_argument);
}

TEST(ScenarioRegistry, RegisteredScenarioIsRunnable) {
  // The open-registry contract: one add() call, no switch edits, and the
  // scenario is selectable by every driver entry point.
  auto& registry = driver::ScenarioRegistry::instance();
  if (registry.find("test_instant_network") == nullptr) {
    registry.add({.name = "test_instant_network",
                  .description = "shifted_exp with a free master link",
                  .sim_only = true,
                  .builder = [](std::size_t) {
                    auto s = driver::ScenarioRegistry::instance().build(
                        "shifted_exp", 0);
                    s.cluster.unit_transfer_seconds = 0.0;
                    return s;
                  },
                  .param_builder = {}});
  }
  driver::ExperimentConfig config;
  config.scenario = "test_instant_network";
  config.num_workers = 10;
  config.num_units = 10;
  config.load = 2;
  config.iterations = 4;
  const auto record = driver::run_experiment(config);
  EXPECT_EQ(record.scenario, "test_instant_network");
  EXPECT_EQ(record.trace.size(), 4u);
  EXPECT_DOUBLE_EQ(record.comm_time, 0.0);  // the free link, observably
}

TEST(ScenarioRegistry, ShiftedExpMatchesEc2Calibration) {
  const auto scenario =
      driver::ScenarioRegistry::instance().build("shifted_exp", 50);
  const auto ec2 = coupon::simulate::ec2_cluster();
  EXPECT_DOUBLE_EQ(scenario.cluster.compute_shift, ec2.compute_shift);
  EXPECT_DOUBLE_EQ(scenario.cluster.compute_straggle, ec2.compute_straggle);
  EXPECT_DOUBLE_EQ(scenario.cluster.unit_transfer_seconds,
                   ec2.unit_transfer_seconds);
}

TEST(ScenarioRegistry, HeteroScenarioBuildsPerWorkerOverrides) {
  const auto& registry = driver::ScenarioRegistry::instance();
  const std::size_t n = 40;
  const auto scenario = registry.build("hetero", n);
  ASSERT_EQ(scenario.cluster.worker_overrides.size(), n);
  std::size_t fast = 0;
  for (const auto& w : scenario.cluster.worker_overrides) {
    if (w.compute_straggle > 1.0) {
      ++fast;
    }
  }
  EXPECT_EQ(fast, n / 20);  // 5% fast workers
  // Tiny clusters still get at least one fast worker.
  const auto tiny = registry.build("hetero", 3);
  ASSERT_EQ(tiny.cluster.worker_overrides.size(), 3u);
  EXPECT_GT(tiny.cluster.worker_overrides.back().compute_straggle, 1.0);
}

TEST(ScenarioRegistry, ScenarioKnobsDifferFromBaseline) {
  const auto& registry = driver::ScenarioRegistry::instance();
  const auto base = registry.build("shifted_exp", 20);
  const auto lossy = registry.build("lossy", 20);
  const auto fast = registry.build("fast_network", 20);
  const auto calm = registry.build("no_stragglers", 20);
  EXPECT_GT(lossy.cluster.drop_probability, 0.0);
  EXPECT_LT(fast.cluster.unit_transfer_seconds,
            base.cluster.unit_transfer_seconds);
  EXPECT_FALSE(calm.straggler.enabled);
  EXPECT_TRUE(base.straggler.enabled);
}

TEST(RuntimeFactory, SpellingsAndNames) {
  const auto& registry = driver::RuntimeRegistry::instance();
  ASSERT_NE(registry.create("sim"), nullptr);
  EXPECT_EQ(registry.create("simulated")->name(), "sim");
  EXPECT_EQ(registry.create("threaded")->name(), "threaded");
  EXPECT_EQ(registry.create("threads")->name(), "threaded");
  EXPECT_EQ(registry.create("process")->name(), "process");
  EXPECT_EQ(registry.create("processes")->name(), "process");
  EXPECT_EQ(registry.create("proc")->name(), "process");
  EXPECT_EQ(registry.create("mpi"), nullptr);
  EXPECT_EQ(registry.names().size(), 3u);
  EXPECT_NE(registry.choices().find("sim"), std::string::npos);
  EXPECT_NE(registry.choices().find("process"), std::string::npos);
}

namespace {

/// Parses `args` (after the program name) into the driver's flags.
std::optional<driver::ExperimentConfig> config_from_args(
    std::vector<const char*> args) {
  coupon::CliFlags flags;
  driver::add_experiment_flags(flags);
  args.insert(args.begin(), "coupon_run");
  if (!flags.parse(static_cast<int>(args.size()), args.data())) {
    return std::nullopt;
  }
  return driver::config_from_flags(flags);
}

}  // namespace

TEST(ConfigFromFlags, DefaultsGiveThePaperConfig) {
  const auto config = config_from_args({});
  ASSERT_TRUE(config.has_value());
  const auto paper = driver::ec2_scenario_one();
  EXPECT_EQ(config->scheme, "bcc");
  EXPECT_EQ(config->scenario, paper.scenario);
  EXPECT_EQ(config->runtime, "sim");
  EXPECT_EQ(config->num_workers, paper.num_workers);
  EXPECT_EQ(config->num_units, paper.num_units);
  EXPECT_EQ(config->load, paper.load);
  EXPECT_EQ(config->iterations, paper.iterations);
  EXPECT_EQ(config->cluster_override, nullptr);
}

TEST(ConfigFromFlags, NegativeCountsAreRejected) {
  // A size_t count would wrap a negative value into a huge one.
  for (const char* flag :
       {"--workers", "--units", "--load", "--iterations", "--features",
        "--examples_per_unit", "--crash_iteration"}) {
    EXPECT_FALSE(config_from_args({flag, "-1"}).has_value()) << flag;
  }
  // --seed is any 64-bit value, negative spellings included.
  EXPECT_TRUE(config_from_args({"--seed", "-1"}).has_value());
}

TEST(Driver, ClusterOverrideReachesTheSimulator) {
  // drop_probability = 1 loses every message: with the override honoured,
  // every iteration fails; if it were silently discarded, none would.
  auto config = driver::ec2_scenario_one();
  config.scheme = "uncoded";
  config.num_workers = 10;
  config.num_units = 10;
  config.load = 2;
  config.iterations = 6;
  auto cluster = coupon::simulate::ec2_cluster();
  cluster.drop_probability = 1.0;
  config.cluster_override =
      std::make_shared<const coupon::simulate::ClusterConfig>(cluster);
  const auto record = driver::run_experiment(config);
  EXPECT_EQ(record.failures, config.iterations);
}

TEST(Driver, ClusterOverrideRejectedByThreadedRuntime) {
  auto config = driver::ec2_scenario_one();
  config.cluster_override =
      std::make_shared<const coupon::simulate::ClusterConfig>(
          coupon::simulate::ec2_cluster());
  config.runtime = "threaded";
  EXPECT_THROW(driver::run_experiment(config), std::invalid_argument);
}

TEST(Driver, NegativeWorkerTimeoutRejected) {
  // 0 means "wait forever" to the live master loop, so a negative typo
  // must fail loudly instead of silently disabling the hang backstop.
  // Rejected before any worker is forked.
  driver::ExperimentConfig config;
  config.runtime = "process";
  config.scenario = "no_stragglers";
  config.num_workers = 4;
  config.num_units = 4;
  config.load = 2;
  config.iterations = 2;
  config.worker_timeout_ms = -1;
  EXPECT_THROW(driver::run_experiment(config), std::invalid_argument);
}

namespace {

driver::ExperimentConfig small_sim_config() {
  driver::ExperimentConfig config;
  config.scheme = "bcc";
  config.scenario = "shifted_exp";
  config.runtime = "sim";
  config.num_workers = 10;
  config.num_units = 10;
  config.load = 2;
  config.iterations = 7;
  config.seed = 123;
  return config;
}

}  // namespace

TEST(Driver, RecordTraceOffSkipsTheTraceButKeepsTheSummaryBitIdentical) {
  // Summary-only consumers disable trace recording; nothing in the
  // summary may change (storage is gated, the draw sequence is not).
  auto config = small_sim_config();
  const auto with_trace = driver::run_experiment(config);
  config.record_trace = false;
  const auto without_trace = driver::run_experiment(config);

  EXPECT_EQ(with_trace.trace.size(), config.iterations);
  EXPECT_TRUE(without_trace.trace.empty());

  std::ostringstream a, b;
  driver::CsvSummarySink(a).write(with_trace);
  driver::CsvSummarySink(b).write(without_trace);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Driver, SimulatedRunEmitsOneTraceEntryPerIteration) {
  const auto config = small_sim_config();
  const auto record = driver::run_experiment(config);
  EXPECT_EQ(record.trace.size(), config.iterations);
  EXPECT_EQ(record.scheme, "bcc");
  EXPECT_EQ(record.scheme_display, "BCC");
  EXPECT_EQ(record.runtime, "sim");
  EXPECT_EQ(record.seed, config.seed);
  EXPECT_GT(record.total_time, 0.0);
  EXPECT_GT(record.recovery_threshold, 0.0);
  EXPECT_FALSE(record.final_loss.has_value());  // no model on the simulator
}

TEST(Driver, AliasSelectionCanonicalizesTheRecord) {
  auto config = small_sim_config();
  config.scheme = "batched_coupon_collection";
  const auto record = driver::run_experiment(config);
  EXPECT_EQ(record.scheme, "bcc");
}

TEST(Driver, SimulatedRunIsDeterministicInSeed) {
  const auto config = small_sim_config();
  const auto a = driver::run_experiment(config);
  const auto b = driver::run_experiment(config);
  std::ostringstream csv_a, csv_b;
  driver::CsvTraceSink(csv_a).write(a);
  driver::CsvTraceSink(csv_b).write(b);
  EXPECT_EQ(csv_a.str(), csv_b.str());

  auto other = config;
  other.seed = 321;
  const auto c = driver::run_experiment(other);
  std::ostringstream csv_c;
  driver::CsvTraceSink(csv_c).write(c);
  EXPECT_NE(csv_a.str(), csv_c.str());
}

TEST(Driver, ThreadedRunReportsModelQuality) {
  driver::ExperimentConfig config;
  config.scheme = "bcc";
  config.runtime = "threaded";
  config.num_workers = 4;
  config.num_units = 4;
  config.load = 2;
  config.iterations = 3;
  config.features = 6;
  config.examples_per_unit = 5;
  const auto record = driver::run_experiment(config);
  EXPECT_EQ(record.runtime, "threaded");
  EXPECT_TRUE(record.trace.empty());  // wall-clock phases not separable
  EXPECT_GT(record.total_time, 0.0);
  ASSERT_TRUE(record.final_loss.has_value());
  ASSERT_TRUE(record.train_accuracy.has_value());
  EXPECT_GE(*record.train_accuracy, 0.0);
  EXPECT_LE(*record.train_accuracy, 1.0);
}

TEST(Driver, UnknownNamesThrowListingChoices) {
  auto config = small_sim_config();
  config.scenario = "bogus";
  EXPECT_THROW(driver::run_experiment(config), std::invalid_argument);

  config = small_sim_config();
  config.scheme = "bogus";
  try {
    driver::run_experiment(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("uncoded"), std::string::npos);
  }

  config = small_sim_config();
  config.runtime = "mpi";
  EXPECT_THROW(driver::run_experiment(config), std::invalid_argument);
}

TEST(Driver, SchemeNeedingEqualUnitsAndWorkersRejectsOtherShapes) {
  // `coupon_run --scheme cr --workers 6 --units 4 --load 2`: a message,
  // not the CR factory's assertion.
  auto config = small_sim_config();
  config.scheme = "cr";
  config.num_workers = 6;
  config.num_units = 4;
  config.load = 2;
  EXPECT_THROW(driver::run_experiment(config), std::invalid_argument);
}

TEST(Driver, SchemeNeedingLoadDividingWorkersRejectsOtherLoads) {
  // `coupon_run --scheme fr --workers 6 --units 6 --load 4`.
  auto config = small_sim_config();
  config.scheme = "fr";
  config.num_workers = 6;
  config.num_units = 6;
  config.load = 4;
  EXPECT_THROW(driver::run_experiment(config), std::invalid_argument);
}

TEST(Driver, EverySchemeShapeRunsOrIsAMessage) {
  // Every registered scheme under each degenerate shape either runs or is
  // rejected with std::invalid_argument by check_scheme_shape; none
  // reaches a factory's assertion.
  struct Shape {
    const char* what;
    std::size_t n, m, r;
  };
  const Shape shapes[] = {
      {"n = 0", 0, 4, 2},
      {"m = 0", 4, 0, 2},
      {"r = 0", 4, 4, 0},
      {"r > n", 4, 4, 5},
      {"r > m", 8, 4, 6},
      {"n < ceil(m/r)", 2, 8, 2},
      {"m < n", 8, 4, 2},
  };
  const auto& registry = coupon::core::SchemeRegistry::instance();
  for (const std::string& scheme : registry.names()) {
    for (const Shape& shape : shapes) {
      auto config = small_sim_config();
      config.scheme = scheme;
      config.num_workers = shape.n;
      config.num_units = shape.m;
      config.load = shape.r;
      config.iterations = 2;
      try {
        const auto record = driver::run_experiment(config);
        EXPECT_EQ(record.iterations_run, 2u) << scheme << ", " << shape.what;
      } catch (const std::invalid_argument& e) {
        const std::string prefix = "scheme '" + scheme + "' requires";
        EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u) << e.what();
      } catch (const coupon::AssertionError& e) {
        ADD_FAILURE() << scheme << ", " << shape.what << ": " << e.what();
      }
    }
  }
}

TEST(Driver, BccWithFewerWorkersThanBatchesIsAMessage) {
  // `coupon_run --scheme bcc --workers 5 --units 100 --load 2`: B = 50.
  auto config = small_sim_config();
  config.num_workers = 5;
  config.num_units = 100;
  config.load = 2;
  try {
    driver::run_experiment(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "scheme 'bcc' requires n >= ceil(m/r), got n=5 m=100 r=2");
  }
}

TEST(Driver, SimOnlyScenarioRejectedUnderThreadedRuntime) {
  for (const std::string name : {"hetero", "lossy", "fast_network"}) {
    auto config = small_sim_config();
    config.scenario = name;
    config.runtime = "threaded";
    EXPECT_THROW(driver::run_experiment(config), std::invalid_argument)
        << name;
  }
  // The same scenarios remain runnable on the simulator.
  auto config = small_sim_config();
  config.scenario = "lossy";
  EXPECT_EQ(driver::run_experiment(config).trace.size(), config.iterations);
}

namespace {

/// Mean uncoded, CR and BCC records over ten BCC placements: the cells
/// are seeded base.seed + p for p = 0..9, the preset's own seed first.
/// Eq. 2 and the paper's K ~ 11 describe this mean; one placement's K
/// swings with how evenly its workers cover the batches.
std::vector<driver::RunRecord> placement_means(
    const driver::ExperimentConfig& base) {
  constexpr std::size_t kPlacements = 10;
  driver::SweepPlan plan;
  plan.base = base;
  plan.base.record_trace = false;
  plan.schemes = {"uncoded", "cr", "bcc"};
  for (std::size_t p = 0; p < kPlacements; ++p) {
    plan.seeds.push_back(base.seed + p);
  }
  const auto records = driver::run_sweep(plan);
  // Cell order is scheme-major, seed-minor.
  std::vector<driver::RunRecord> means(plan.schemes.size());
  for (std::size_t s = 0; s < means.size(); ++s) {
    auto& mean = means[s];
    mean.scheme = plan.schemes[s];
    for (std::size_t p = 0; p < kPlacements; ++p) {
      const auto& record = records[s * kPlacements + p];
      mean.recovery_threshold += record.recovery_threshold;
      mean.comm_time += record.comm_time;
      mean.compute_time += record.compute_time;
      mean.total_time += record.total_time;
    }
    mean.recovery_threshold /= kPlacements;
    mean.comm_time /= kPlacements;
    mean.compute_time /= kPlacements;
    mean.total_time /= kPlacements;
  }
  return means;
}

}  // namespace

TEST(Scenario, Ec2ConfigsMatchThePaper) {
  const auto s1 = driver::ec2_scenario_one();
  EXPECT_EQ(s1.scenario, "shifted_exp");
  EXPECT_EQ(s1.num_workers, 50u);
  EXPECT_EQ(s1.num_units, 50u);
  EXPECT_EQ(s1.load, 10u);
  EXPECT_EQ(s1.iterations, 100u);
  EXPECT_EQ(s1.seed, 0xEC2001u);
  const auto s2 = driver::ec2_scenario_two();
  EXPECT_EQ(s2.num_workers, 100u);
  EXPECT_EQ(s2.num_units, 100u);
  EXPECT_EQ(s2.seed, 0xEC2002u);
}

TEST(Scenario, Fig4ShapeHoldsInScenarioOne) {
  const auto rows = placement_means(driver::ec2_scenario_one());
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
  const double vs_uncoded = driver::speedup_fraction(bcc, uncoded);
  const double vs_cr = driver::speedup_fraction(bcc, cr);
  EXPECT_GT(vs_uncoded, 0.5);
  EXPECT_LT(vs_uncoded, 0.95);
  EXPECT_GT(vs_cr, 0.4);

  // Communication dominates computation, as in Table I.
  EXPECT_GT(uncoded.comm_time, uncoded.compute_time);
  EXPECT_GT(bcc.comm_time, bcc.compute_time);
}

TEST(Scenario, Fig4ShapeHoldsInScenarioTwo) {
  const auto rows = placement_means(driver::ec2_scenario_two());
  const auto& uncoded = rows[0];
  const auto& cr = rows[1];
  const auto& bcc = rows[2];
  EXPECT_DOUBLE_EQ(uncoded.recovery_threshold, 100.0);
  EXPECT_DOUBLE_EQ(cr.recovery_threshold, 91.0);
  EXPECT_NEAR(bcc.recovery_threshold, coupon::core::theory::k_bcc(100, 10),
              6.0);
  EXPECT_LT(bcc.total_time, cr.total_time);
  EXPECT_LT(cr.total_time, uncoded.total_time);
  EXPECT_GT(driver::speedup_fraction(bcc, cr), 0.5);
}

TEST(Scenario, TotalTimeTracksRecoveryThreshold) {
  // The paper's Tables I/II observation: total time is approximately
  // proportional to K when communication dominates.
  const auto rows = placement_means(driver::ec2_scenario_two());
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
  driver::RunRecord fast, slow;
  fast.total_time = 2.0;
  slow.total_time = 10.0;
  EXPECT_DOUBLE_EQ(driver::speedup_fraction(fast, slow), 0.8);
}

TEST(Sinks, TraceHeaderExtendsIterationCsvHeader) {
  const std::vector<std::string> expected = {
      "scheme",        "scenario",       "runtime",
      "iteration",     "total_time",     "compute_time",
      "comm_time",     "workers_heard",  "units_received",
      "recovered"};
  EXPECT_EQ(driver::trace_csv_header(), expected);
}

TEST(Sinks, TraceCsvEmitsHeaderPlusOneRowPerIteration) {
  const auto record = driver::run_experiment(small_sim_config());
  std::ostringstream os;
  driver::CsvTraceSink sink(os);
  sink.write(record);
  std::size_t lines = 0;
  for (char c : os.str()) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, record.trace.size() + 1);
  EXPECT_EQ(os.str().substr(0, 6), "scheme");
}

TEST(Sinks, SummaryCsvEmitsOneRowPerRecord) {
  const auto record = driver::run_experiment(small_sim_config());
  std::ostringstream os;
  driver::CsvSummarySink sink(os);
  sink.write(record);
  sink.write(record);
  std::size_t lines = 0;
  for (char c : os.str()) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, 3u);  // header + 2 records
}

TEST(Sinks, JsonlEmitsOneObjectPerRecordWithNullModelFields) {
  const auto record = driver::run_experiment(small_sim_config());
  std::ostringstream os;
  driver::JsonlSink sink(os);
  sink.write(record);
  const std::string line = os.str();
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("\"scheme\":\"bcc\""), std::string::npos);
  EXPECT_NE(line.find("\"final_loss\":null"), std::string::npos);
  EXPECT_EQ(line.find("\"trace\""), std::string::npos);

  std::ostringstream with_trace;
  driver::JsonlSink(with_trace, /*include_trace=*/true).write(record);
  EXPECT_NE(with_trace.str().find("\"trace\":[{"), std::string::npos);
}

TEST(Sinks, TeeFansOutToAllSinks) {
  const auto record = driver::run_experiment(small_sim_config());
  std::ostringstream a, b;
  driver::CsvSummarySink sink_a(a);
  driver::JsonlSink sink_b(b);
  driver::TeeSink tee({&sink_a, &sink_b});
  tee.write(record);
  EXPECT_FALSE(a.str().empty());
  EXPECT_FALSE(b.str().empty());
}

TEST(Sinks, WriteRecordsToPathRejectsUnwritableFile) {
  EXPECT_FALSE(driver::write_records_to_path(
      "/nonexistent-dir/x.csv", {}, driver::RecordFormat::kSummaryCsv));
}
