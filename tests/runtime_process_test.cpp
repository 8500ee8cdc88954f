// End-to-end tests of the multi-process socket runtime: real worker OS
// processes must reproduce the threaded runtime's training exactly from
// the same seed, survive a SIGKILLed worker mid-iteration via the
// FailurePolicy, and honour the elastic join/leave scenario. Every test
// skips cleanly in sandboxes without fork()/stream sockets.

#include <gtest/gtest.h>

#include <stdexcept>

#include "driver/driver.hpp"
#include "driver/runtime.hpp"
#include "runtime/process_cluster.hpp"

namespace coupon::runtime {
namespace {

driver::ExperimentConfig live_config(const std::string& runtime) {
  driver::ExperimentConfig config;
  config.scheme = "bcc";
  config.scenario = "no_stragglers";
  config.runtime = runtime;
  config.num_workers = 4;
  config.num_units = 4;
  config.load = 2;
  config.iterations = 12;
  config.seed = 123;
  config.features = 8;
  config.examples_per_unit = 5;
  return config;
}

#define SKIP_WITHOUT_PROCESS_SUPPORT()                                   \
  if (!ProcessCluster::supported()) {                                    \
    GTEST_SKIP() << "no fork()/stream sockets in this sandbox";          \
  }

TEST(ProcessRuntime, TrainsAcrossFourWorkerProcesses) {
  SKIP_WITHOUT_PROCESS_SUPPORT();
  const auto record = driver::run_experiment(live_config("process"));
  EXPECT_EQ(record.runtime, "process");
  EXPECT_EQ(record.iterations_run, 12u);
  EXPECT_EQ(record.workers_lost, 0u);
  EXPECT_EQ(record.failures, 0u);
  ASSERT_TRUE(record.final_loss.has_value());
  EXPECT_GT(record.recovery_threshold, 0.0);
}

TEST(ProcessRuntime, FinalLossMatchesThreadedFromTheSameSeed) {
  SKIP_WITHOUT_PROCESS_SUPPORT();
  // Both live runtimes draw data, scheme, and optimizer identically from
  // the seed, and these schemes' decodes are arrival-order independent,
  // so the final loss must agree bitwise despite real process scheduling.
  for (const auto* scheme : {"uncoded", "bcc"}) {
    auto process_config = live_config("process");
    process_config.scheme = scheme;
    auto threaded_config = live_config("threaded");
    threaded_config.scheme = scheme;
    const auto process_record = driver::run_experiment(process_config);
    const auto threaded_record = driver::run_experiment(threaded_config);
    ASSERT_TRUE(process_record.final_loss.has_value()) << scheme;
    ASSERT_TRUE(threaded_record.final_loss.has_value()) << scheme;
    EXPECT_EQ(*process_record.final_loss, *threaded_record.final_loss)
        << scheme;
    EXPECT_EQ(process_record.train_accuracy, threaded_record.train_accuracy)
        << scheme;
  }
}

TEST(ProcessRuntime, SurvivesSigkilledWorkerMidIteration) {
  SKIP_WITHOUT_PROCESS_SUPPORT();
  // Worker 0 raises SIGKILL on receiving iteration 2's broadcast: the
  // master must observe the socket EOF, shrink its expectation, and
  // finish all 12 iterations on the survivors under kSkipUpdate. Worker 0
  // alone holds batch 0 here, so the master waits for it every iteration
  // and must see the EOF. A worker whose batch others also hold is never
  // waited for; it can fall so far behind that it reaches the crash
  // broadcast only after the master's last iteration.
  auto config = live_config("process");
  config.crash_worker = 0;
  config.crash_iteration = 2;
  config.worker_timeout_ms = 5000;
  const auto record = driver::run_experiment(config);
  EXPECT_EQ(record.iterations_run, 12u);
  EXPECT_EQ(record.workers_lost, 1u);
  ASSERT_TRUE(record.final_loss.has_value());
  EXPECT_LT(*record.final_loss, 0.69);  // better than the ln(2) start
}

TEST(ProcessRuntime, ElasticScenarioCompletesWithAbsenceWindow) {
  SKIP_WITHOUT_PROCESS_SUPPORT();
  auto config = live_config("process");
  config.scenario = "elastic:1@3-8";
  const auto record = driver::run_experiment(config);
  EXPECT_EQ(record.iterations_run, 12u);
  EXPECT_EQ(record.workers_lost, 0u);  // absence is planned, not a death
  ASSERT_TRUE(record.final_loss.has_value());
}

TEST(ProcessRuntime, RejectsSimOnlyScenario) {
  auto config = live_config("process");
  config.scenario = "lossy";
  EXPECT_THROW(driver::run_experiment(config), std::invalid_argument);
}

TEST(CrashDrill, RejectedByRuntimesWithoutProcesses) {
  for (const auto* runtime : {"sim", "threaded"}) {
    auto config = live_config(runtime);
    config.crash_worker = 0;
    EXPECT_THROW(driver::run_experiment(config), std::invalid_argument)
        << runtime;
  }
}

TEST(ElasticScenario, RejectedBySimRuntime) {
  auto config = live_config("sim");
  config.scenario = "elastic";
  EXPECT_THROW(driver::run_experiment(config), std::invalid_argument);
}

TEST(ElasticScenario, ThreadedRuntimeHonoursAbsenceWindow) {
  auto config = live_config("threaded");
  config.scenario = "elastic:2@3-8";
  const auto record = driver::run_experiment(config);
  EXPECT_EQ(record.iterations_run, 12u);
  ASSERT_TRUE(record.final_loss.has_value());
}

TEST(ElasticScenario, BadArgumentDiagnosed) {
  auto config = live_config("threaded");
  config.scenario = "elastic:2@8-3";  // leave must precede rejoin
  EXPECT_THROW(driver::run_experiment(config), std::invalid_argument);
}

}  // namespace
}  // namespace coupon::runtime
