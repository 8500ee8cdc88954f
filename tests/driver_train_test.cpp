// Driver-level tests of the convergence experiment path: the simulated
// runtime's --train mode (TrainingEngine over the simulated provider),
// the new ExperimentConfig training knobs, the convergence fields on
// RunRecord and their conditional sink rendering, and training sweeps'
// serial == parallel bit-identity and cell == standalone-run identity.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/driver.hpp"
#include "driver/sweep.hpp"

namespace driver = coupon::driver;

namespace {

driver::ExperimentConfig small_train_config() {
  driver::ExperimentConfig config;
  config.scheme = "bcc";
  config.scenario = "shifted_exp";
  config.runtime = "sim";
  config.train = true;
  config.num_workers = 10;
  config.num_units = 10;
  config.load = 2;
  config.iterations = 12;
  config.seed = 123;
  config.features = 8;
  config.examples_per_unit = 5;
  return config;
}

std::string to_jsonl(const driver::RunRecord& record) {
  std::ostringstream os;
  driver::JsonlSink(os).write(record);
  return os.str();
}

}  // namespace

TEST(DriverTrain, SimulatedTrainingRecordCarriesConvergenceFields) {
  const auto record = driver::run_experiment(small_train_config());
  EXPECT_EQ(record.runtime, "sim");
  EXPECT_TRUE(record.trace.empty());  // training records carry no latency trace
  EXPECT_GT(record.total_time, 0.0);
  EXPECT_GT(record.recovery_threshold, 0.0);
  EXPECT_EQ(record.failures, 0u);
  EXPECT_EQ(record.iterations_run, 12u);
  ASSERT_TRUE(record.final_loss.has_value());
  ASSERT_TRUE(record.train_accuracy.has_value());
  EXPECT_GE(*record.train_accuracy, 0.0);
  EXPECT_LE(*record.train_accuracy, 1.0);
  // Phase decomposition is real on simulated time.
  EXPECT_NEAR(record.total_time, record.comm_time + record.compute_time,
              1e-9);
}

TEST(DriverTrain, TrainingIsDeterministicInSeedAndSensitiveToIt) {
  const auto config = small_train_config();
  const auto a = driver::run_experiment(config);
  const auto b = driver::run_experiment(config);
  EXPECT_EQ(to_jsonl(a), to_jsonl(b));

  auto other = config;
  other.seed = 321;
  EXPECT_NE(to_jsonl(a), to_jsonl(driver::run_experiment(other)));
}

TEST(DriverTrain, SimAndThreadedReachTheSameModelFromTheSameSeed) {
  // Same seed => same synthetic dataset and placement on both
  // substrates; with the order-independent uncoded decode the final
  // loss must agree exactly, simulated seconds vs wall clock aside.
  auto config = small_train_config();
  config.scheme = "uncoded";
  config.scenario = "no_stragglers";
  const auto sim = driver::run_experiment(config);

  config.runtime = "threaded";
  config.train = false;  // threaded always trains; the flag is sim-only
  const auto threaded = driver::run_experiment(config);

  ASSERT_TRUE(sim.final_loss && threaded.final_loss);
  EXPECT_EQ(*sim.final_loss, *threaded.final_loss);
  EXPECT_EQ(*sim.train_accuracy, *threaded.train_accuracy);
}

TEST(DriverTrain, TargetLossAndLossHistoryFlowThrough) {
  auto config = small_train_config();
  config.record_loss_history = true;
  // From w = 0 the logistic loss starts at log 2; any progress crosses
  // a target just below it.
  config.target_loss = 0.69;
  const auto record = driver::run_experiment(config);
  ASSERT_EQ(record.loss_history.size(), record.iterations_run);
  ASSERT_TRUE(record.time_to_target.has_value());
  EXPECT_LE(*record.time_to_target, record.total_time);

  auto stopping = config;
  stopping.stop_at_target = true;
  const auto stopped = driver::run_experiment(stopping);
  EXPECT_LT(stopped.iterations_run, stopping.iterations);
  ASSERT_TRUE(stopped.time_to_target.has_value());
  EXPECT_DOUBLE_EQ(*stopped.time_to_target, *record.time_to_target);
}

TEST(DriverTrain, LeastSquaresObjectiveAndOptimizerKnobs) {
  auto config = small_train_config();
  config.objective = "least_squares";
  config.optimizer = "gd";
  config.learning_rate = 0.05;
  config.lr_decay = 0.1;
  const auto record = driver::run_experiment(config);
  ASSERT_TRUE(record.final_loss.has_value());
  EXPECT_FALSE(record.train_accuracy.has_value());  // regression objective

  config.objective = "bogus";
  EXPECT_THROW(driver::run_experiment(config), std::invalid_argument);
  config.objective = "least_squares";
  config.optimizer = "bogus";
  EXPECT_THROW(driver::run_experiment(config), std::invalid_argument);
}

TEST(DriverTrain, JsonlEmitsConvergenceFieldsOnlyForTrainingRecords) {
  auto config = small_train_config();
  config.record_loss_history = true;
  config.target_loss = 0.69;
  const std::string trained = to_jsonl(driver::run_experiment(config));
  EXPECT_NE(trained.find("\"iterations_run\":"), std::string::npos);
  EXPECT_NE(trained.find("\"time_to_target\":"), std::string::npos);
  EXPECT_NE(trained.find("\"loss_history\":[{\"seconds\":"),
            std::string::npos);

  // Timing-only records keep the pre-engine schema byte-for-byte (also
  // pinned by the golden trace test).
  config = small_train_config();
  config.train = false;
  const std::string timing = to_jsonl(driver::run_experiment(config));
  EXPECT_EQ(timing.find("\"iterations_run\""), std::string::npos);
  EXPECT_EQ(timing.find("\"time_to_target\""), std::string::npos);
  EXPECT_EQ(timing.find("\"loss_history\""), std::string::npos);
}

TEST(DriverTrain, SummaryCsvHasTheTimeToTargetColumn) {
  const auto& header = driver::summary_csv_header();
  EXPECT_EQ(header.back(), "time_to_target");

  auto config = small_train_config();
  config.target_loss = 0.69;
  const auto record = driver::run_experiment(config);
  std::ostringstream os;
  driver::CsvSummarySink sink(os);
  sink.write(record);
  // Header + row; the row's last field is non-empty.
  const std::string text = os.str();
  const auto last_newline = text.rfind('\n', text.size() - 2);
  const std::string row = text.substr(last_newline + 1);
  EXPECT_NE(row.rfind(','), row.size() - 2);  // non-empty trailing field
}

TEST(DriverTrain, TrainingSweepIsBitIdenticalSerialVsParallel) {
  driver::SweepPlan plan;
  plan.base = small_train_config();
  plan.base.record_loss_history = true;
  plan.base.target_loss = 0.69;
  plan.schemes = {"bcc", "uncoded"};
  plan.scenarios = {"shifted_exp", "no_stragglers"};
  plan.seeds = {1, 2};

  auto run_to_jsonl = [&](std::size_t threads) {
    std::ostringstream os;
    driver::JsonlSink sink(os);
    driver::SweepOptions options;
    options.threads = threads;
    options.sink = &sink;
    driver::run_sweep(plan, options);
    return os.str();
  };
  // The 8 cells draw 2 problems (one per seed). At 3 and 8 threads a
  // task holds fewer cells than a problem's group.
  const std::string serial = run_to_jsonl(1);
  ASSERT_FALSE(serial.empty());
  for (std::size_t threads : {2u, 3u, 4u, 8u}) {
    EXPECT_EQ(serial, run_to_jsonl(threads)) << "threads=" << threads;
  }
}

namespace {

/// A record with its wall-clock readings zeroed: the threaded runtime
/// times real threads, so only the rest of its record is reproducible.
driver::RunRecord without_wall_clock(driver::RunRecord record) {
  record.total_time = 0.0;
  if (record.time_to_target) {
    record.time_to_target = 0.0;
  }
  for (auto& point : record.loss_history) {
    point.seconds = 0.0;
  }
  return record;
}

}  // namespace

TEST(DriverTrain, EverySweepCellMatchesItsStandaloneRun) {
  // Cells that draw the same problem share one draw in a sweep; each
  // must still equal run_experiment of its own config, loss history
  // included. Threaded runs use schemes whose records do not depend on
  // which workers answer first (uncoded waits for all, gc_cyclic for a
  // fixed count whose copies of a unit are bitwise equal).
  struct Leg {
    const char* runtime;
    std::vector<std::string> schemes;
    std::vector<std::size_t> threads;
  };
  const std::vector<Leg> legs = {
      {"sim", {"bcc", "gc_cyclic", "uncoded"}, {1, 3}},
      {"threaded", {"uncoded", "gc_cyclic"}, {2}},
  };
  for (const Leg& leg : legs) {
    driver::SweepPlan plan;
    plan.base = small_train_config();
    plan.base.runtime = leg.runtime;
    plan.base.scenario = "no_stragglers";
    plan.base.num_workers = 6;
    plan.base.num_units = 6;
    plan.base.iterations = 6;
    plan.base.record_loss_history = true;
    plan.base.target_loss = 0.69;
    plan.schemes = leg.schemes;
    plan.loads = {2, 3};
    plan.seeds = {5, 6};
    const bool live = std::string(leg.runtime) != "sim";
    const auto render = [live](const driver::RunRecord& record) {
      return to_jsonl(live ? without_wall_clock(record) : record);
    };
    const auto cells = driver::expand_plan(plan);
    for (std::size_t threads : leg.threads) {
      driver::SweepOptions options;
      options.threads = threads;
      const auto records = driver::run_sweep(plan, options);
      ASSERT_EQ(records.size(), cells.size());
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto standalone = driver::run_experiment(cells[i].config);
        ASSERT_FALSE(records[i].loss_history.empty());
        EXPECT_EQ(render(records[i]), render(standalone))
            << leg.runtime << " threads=" << threads << " cell " << i;
      }
    }
  }
}

TEST(DriverTrain, ThreadedRecordAlsoCarriesTheNewFields) {
  auto config = small_train_config();
  config.runtime = "threaded";
  config.train = false;
  config.scenario = "no_stragglers";
  config.record_loss_history = true;
  config.num_workers = 4;
  config.num_units = 4;
  config.iterations = 3;
  const auto record = driver::run_experiment(config);
  EXPECT_EQ(record.iterations_run, 3u);
  EXPECT_EQ(record.loss_history.size(), 3u);
  // Wall-clock timestamps are strictly increasing here too.
  EXPECT_GT(record.loss_history[2].seconds, record.loss_history[0].seconds);
}

TEST(DriverTrain, CoupledFlagsRejectedCleanly) {
  // --train is a simulated-runtime mode; the threaded runtime trains
  // unconditionally and must not silently reinterpret the flag.
  auto config = small_train_config();
  config.runtime = "threaded";
  config.scenario = "no_stragglers";
  config.train = true;  // ignored by design: threaded always trains
  const auto record = driver::run_experiment(config);
  ASSERT_TRUE(record.final_loss.has_value());
}

