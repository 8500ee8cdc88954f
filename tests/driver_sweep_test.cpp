// Tests for the SweepPlan API: cartesian expansion order, up-front name
// validation, parallel == serial bit-identical output, streaming sink
// ordering, per-cell error isolation, and the partial-decode failure
// policy exercised end-to-end through the unified Runtime interface.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/partition_scheme.hpp"
#include "core/scheme_registry.hpp"
#include "driver/driver.hpp"
#include "driver/sweep.hpp"
#include "simulate/cluster_config.hpp"

namespace driver = coupon::driver;

namespace {

driver::SweepPlan small_plan() {
  driver::SweepPlan plan;
  plan.base.num_workers = 10;
  plan.base.num_units = 10;
  plan.base.iterations = 5;
  plan.base.seed = 77;
  plan.schemes = {"bcc", "cr"};
  plan.scenarios = {"shifted_exp", "lossy"};
  plan.loads = {2, 5};
  return plan;
}

std::string summary_csv(const std::vector<driver::RunRecord>& records) {
  std::ostringstream os;
  driver::CsvSummarySink sink(os);
  for (const auto& record : records) {
    sink.write(record);
  }
  return os.str();
}

}  // namespace

TEST(SweepPlan, ExpandsTheCartesianProductInDeterministicOrder) {
  const auto cells = driver::expand_plan(small_plan());
  ASSERT_EQ(cells.size(), 8u);  // 2 schemes x 2 scenarios x 2 loads
  // Nesting order: scheme (outermost), scenario, load (innermost).
  EXPECT_EQ(cells[0].config.scheme, "bcc");
  EXPECT_EQ(cells[0].config.scenario, "shifted_exp");
  EXPECT_EQ(cells[0].config.load, 2u);
  EXPECT_EQ(cells[1].config.load, 5u);
  EXPECT_EQ(cells[2].config.scenario, "lossy");
  EXPECT_EQ(cells[4].config.scheme, "cr");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    // Non-swept fields come from the base template.
    EXPECT_EQ(cells[i].config.num_workers, 10u);
    EXPECT_EQ(cells[i].config.seed, 77u);
  }
}

TEST(SweepPlan, EmptyAxesFallBackToTheBaseConfig) {
  driver::SweepPlan plan;
  plan.base.scheme = "uncoded";
  plan.base.scenario = "no_stragglers";
  const auto cells = driver::expand_plan(plan);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].config.scheme, "uncoded");
  EXPECT_EQ(cells[0].config.scenario, "no_stragglers");
}

TEST(SweepPlan, UnitsAxisTracksWorkersByDefault) {
  driver::SweepPlan plan;
  plan.workers = {10, 20};
  const auto cells = driver::expand_plan(plan);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].config.num_units, 10u);
  EXPECT_EQ(cells[1].config.num_units, 20u);

  plan.units = {40};  // explicit axis decouples m from n
  const auto decoupled = driver::expand_plan(plan);
  ASSERT_EQ(decoupled.size(), 2u);
  EXPECT_EQ(decoupled[0].config.num_units, 40u);
  EXPECT_EQ(decoupled[1].config.num_units, 40u);
}

TEST(SweepPlan, UnknownNamesRejectedBeforeAnyCellRuns) {
  auto plan = small_plan();
  plan.schemes.push_back("bogus_scheme");
  try {
    driver::expand_plan(plan);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("uncoded"), std::string::npos);
  }

  plan = small_plan();
  plan.scenarios.push_back("bogus_scenario");
  EXPECT_THROW(driver::expand_plan(plan), std::invalid_argument);

  plan = small_plan();
  plan.base.runtime = "mpi";
  EXPECT_THROW(driver::expand_plan(plan), std::invalid_argument);
}

TEST(SweepPlan, CapabilityViolationsRejectedBeforeAnyCellRuns) {
  // CR requires m == n: a decoupled units axis must fail at expansion
  // time, not as an assertion halfway through the sweep.
  driver::SweepPlan plan;
  plan.schemes = {"cr", "bcc"};
  plan.workers = {50};
  plan.units = {20};
  EXPECT_THROW(driver::expand_plan(plan), std::invalid_argument);

  // FR requires r | n.
  plan = driver::SweepPlan{};
  plan.schemes = {"fr"};
  plan.workers = {10};
  plan.loads = {3};
  EXPECT_THROW(driver::expand_plan(plan), std::invalid_argument);
  plan.loads = {2};  // divides: fine
  EXPECT_EQ(driver::expand_plan(plan).size(), 1u);

  // Sim-only scenarios and cluster overrides are rejected up front under
  // the threaded runtime.
  plan = driver::SweepPlan{};
  plan.base.runtime = "threaded";
  plan.scenarios = {"no_stragglers", "hetero"};
  EXPECT_THROW(driver::expand_plan(plan), std::invalid_argument);

  plan = driver::SweepPlan{};
  plan.base.runtime = "threaded";
  plan.base.cluster_override =
      std::make_shared<const coupon::simulate::ClusterConfig>(
          coupon::simulate::ec2_cluster());
  EXPECT_THROW(driver::expand_plan(plan), std::invalid_argument);
  // The crash drill's worker must exist in every cell, not only at the
  // base n: worker 3 is out of range for the n = 2 cell.
  plan = driver::SweepPlan{};
  plan.base.runtime = "process";
  plan.base.scenario = "no_stragglers";
  plan.base.load = 2;
  plan.base.crash_worker = 3;
  plan.workers = {2, 8};
  EXPECT_THROW(driver::expand_plan(plan), std::invalid_argument);
  plan.base.crash_worker = 1;  // in range for both cells: fine
  EXPECT_EQ(driver::expand_plan(plan).size(), 2u);
}

TEST(SweepPlan, ParallelSweepIsBitIdenticalToSerial) {
  const auto plan = small_plan();

  std::ostringstream serial_csv_os, parallel_csv_os;
  driver::CsvSummarySink serial_sink(serial_csv_os);
  driver::CsvSummarySink parallel_sink(parallel_csv_os);

  driver::SweepOptions serial;
  serial.threads = 1;
  serial.sink = &serial_sink;
  const auto serial_records = driver::run_sweep(plan, serial);

  driver::SweepOptions parallel;
  parallel.threads = 4;
  parallel.sink = &parallel_sink;
  const auto parallel_records = driver::run_sweep(plan, parallel);

  // Streamed output and collected records agree byte-for-byte.
  ASSERT_EQ(serial_records.size(), parallel_records.size());
  EXPECT_EQ(serial_csv_os.str(), parallel_csv_os.str());
  EXPECT_EQ(summary_csv(serial_records), summary_csv(parallel_records));

  // The per-iteration traces match too, not just the summaries.
  std::ostringstream serial_trace, parallel_trace;
  driver::CsvTraceSink a(serial_trace), b(parallel_trace);
  for (const auto& record : serial_records) {
    a.write(record);
  }
  for (const auto& record : parallel_records) {
    b.write(record);
  }
  EXPECT_EQ(serial_trace.str(), parallel_trace.str());
}

TEST(SweepPlan, EveryCellMatchesAStandaloneRun) {
  // A sweep cell is exactly run_experiment of its resolved config: any
  // CSV row reproduces as a single coupon_run invocation.
  const auto plan = small_plan();
  const auto cells = driver::expand_plan(plan);
  const auto records = driver::run_sweep(plan);
  ASSERT_EQ(records.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto standalone = driver::run_experiment(cells[i].config);
    EXPECT_EQ(summary_csv({records[i]}), summary_csv({standalone})) << i;
  }
}

TEST(SweepPlan, JsonlSinkEmitsOneLinePerCell) {
  const auto plan = small_plan();
  std::ostringstream os;
  driver::JsonlSink sink(os);
  driver::SweepOptions options;
  options.sink = &sink;
  const auto records = driver::run_sweep(plan, options);
  std::size_t lines = 0;
  for (char c : os.str()) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, records.size());
}

TEST(SweepPlan, SeedAxisGivesEachCellItsOwnStream) {
  driver::SweepPlan plan;
  plan.base.num_workers = 10;
  plan.base.num_units = 10;
  plan.base.load = 2;
  plan.base.iterations = 4;
  plan.seeds = {1, 2, 3};
  const auto records = driver::run_sweep(plan);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].seed, 1u);
  EXPECT_EQ(records[2].seed, 3u);
  // Different seeds, different realized traces.
  EXPECT_NE(summary_csv({records[0]}), summary_csv({records[1]}));
}

namespace {

/// Keeps every record it is handed, in arrival order.
struct CollectingSink final : driver::RecordSink {
  std::vector<driver::RunRecord> records;
  void write(const driver::RunRecord& record) override {
    records.push_back(record);
  }
};

}  // namespace

TEST(SweepPlan, AThrowingCellDropsOnlyItself) {
  // A test scheme that is uncoded except that building it at load 3
  // throws: the load-2 cells are healthy, the load-3 cells fail at run
  // time (expand_plan cannot see it coming). Every healthy cell must
  // still reach the sink, in cell order, and the failure must surface.
  auto& registry = coupon::core::SchemeRegistry::instance();
  if (registry.find("test_throws_at_load3") == nullptr) {
    coupon::core::SchemeRegistration registration(
        {.name = "test_throws_at_load3",
         .aliases = {},
         .description = "uncoded, but throws at load 3 (test scheme)",
         .caps = {.supports_partial_decode = true},
         .factory = [](const coupon::core::SchemeConfig& c,
                       coupon::stats::Rng&)
             -> std::unique_ptr<coupon::core::Scheme> {
           if (c.load == 3) {
             throw std::runtime_error("test scheme refuses load 3");
           }
           return coupon::core::make_uncoded(c.num_workers, c.num_units);
         }});
  }
  driver::SweepPlan plan;
  plan.base.scheme = "test_throws_at_load3";
  plan.base.num_workers = 6;
  plan.base.num_units = 6;
  plan.base.iterations = 3;
  plan.base.record_trace = false;
  plan.loads = {2, 3};
  plan.seeds = {1, 2, 3};

  // Cells nest load outside seed: cells 0-2 are the healthy load-2 ones.
  const auto cells = driver::expand_plan(plan);
  ASSERT_EQ(cells.size(), 6u);
  std::vector<driver::RunRecord> healthy;
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(cells[i].config.load, 2u);
    healthy.push_back(driver::run_experiment(cells[i].config));
  }

  for (std::size_t threads : {1u, 2u}) {
    CollectingSink sink;
    driver::SweepOptions options;
    options.threads = threads;
    options.sink = &sink;
    EXPECT_THROW(driver::run_sweep(plan, options), std::runtime_error)
        << "threads=" << threads;
    EXPECT_EQ(summary_csv(sink.records), summary_csv(healthy))
        << "threads=" << threads;
  }
}

// --- FailurePolicy::kApplyPartial end-to-end through Runtime ------------

namespace {

/// A 2-worker / 2-batch BCC cell with fully random batch choice: the two
/// workers collide on one batch with probability 1/2 per seed, making
/// full coverage impossible — the scenario kApplyPartial exists for.
driver::ExperimentConfig colliding_bcc_config(std::uint64_t seed) {
  driver::ExperimentConfig config;
  config.scheme = "bcc";
  config.scenario = "no_stragglers";  // threaded-capable, no injected sleeps
  config.runtime = "threaded";
  config.num_workers = 2;
  config.num_units = 4;
  config.load = 2;  // B = 2 batches of 2 units
  config.iterations = 3;
  config.features = 4;
  config.examples_per_unit = 3;
  config.seed = seed;
  config.bcc_seed_first_batches = false;  // allow colliding placements
  return config;
}

}  // namespace

TEST(RuntimePolicy, ApplyPartialTrainsThroughCoverageFailures) {
  // Scan seeds for a colliding placement, then check both policies
  // end-to-end through the polymorphic Runtime interface.
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    auto config = colliding_bcc_config(seed);
    const auto skip = driver::run_experiment(config);
    if (skip.failures == 0) {
      continue;  // placement covered; try the next seed
    }
    // kSkipUpdate: every iteration failed, no partial updates.
    EXPECT_EQ(skip.failures, config.iterations);
    EXPECT_EQ(skip.partial_iterations, 0u);

    // kApplyPartial: the same cell applies a rescaled covered gradient
    // every iteration instead of freezing.
    config.on_failure = coupon::engine::FailurePolicy::kApplyPartial;
    const auto partial = driver::run_experiment(config);
    EXPECT_EQ(partial.partial_iterations, config.iterations);
    EXPECT_EQ(partial.failures, 0u);
    ASSERT_TRUE(partial.final_loss.has_value());
    ASSERT_TRUE(skip.final_loss.has_value());
    // Skipping every update leaves w = 0: loss stays at ln 2; the
    // partial updates actually move the model.
    EXPECT_NE(*partial.final_loss, *skip.final_loss);
    return;
  }
  FAIL() << "no colliding placement in 32 seeds (p ~ 2^-32)";
}

TEST(RuntimePolicy, ApplyPartialRunsThroughASweep) {
  // The policy is part of the sweep template: a whole seed axis runs
  // under kApplyPartial, and the record carries the partial counts.
  driver::SweepPlan plan;
  plan.base = colliding_bcc_config(0);
  plan.base.on_failure = coupon::engine::FailurePolicy::kApplyPartial;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    plan.seeds.push_back(seed);
  }
  const auto records = driver::run_sweep(plan);
  ASSERT_EQ(records.size(), 8u);
  for (const auto& record : records) {
    // Either the placement covered (normal updates) or every iteration
    // fell back to a partial update — never a frozen model.
    EXPECT_EQ(record.failures, 0u);
    EXPECT_TRUE(record.partial_iterations == 0 ||
                record.partial_iterations == plan.base.iterations);
  }
}
