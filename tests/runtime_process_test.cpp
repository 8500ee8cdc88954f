// End-to-end tests of the multi-process socket runtime: real worker OS
// processes must reproduce the threaded runtime's training exactly from
// the same seed, survive a SIGKILLed worker mid-iteration via the
// FailurePolicy, count each sweep cell's own crash, honour the elastic
// join/leave scenario, and leave no child behind.
// Every test skips cleanly in sandboxes without fork()/stream sockets.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/core.hpp"
#include "data/synthetic.hpp"
#include "driver/driver.hpp"
#include "driver/runtime.hpp"
#include "driver/sweep.hpp"
#include "opt/opt.hpp"
#include "runtime/process_cluster.hpp"
#include "stats/rng.hpp"

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

/// `ProcessCluster::train` reaps every worker before it returns, so this
/// process has no child left, running or zombie.
::testing::AssertionResult no_children_left() {
  errno = 0;
  const pid_t pid = ::waitpid(-1, nullptr, WNOHANG);
  if (pid == -1 && errno == ECHILD) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "waitpid(-1, WNOHANG) returned " << pid
         << (pid == 0 ? " (a child is still running)"
                      : pid > 0 ? " (an unreaped child)" : "");
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
  EXPECT_TRUE(no_children_left());
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
    EXPECT_TRUE(no_children_left()) << scheme;
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
  // Worker 0 raises SIGKILL on receiving the crash iteration's broadcast:
  // the master must observe the socket EOF, shrink its expectation, and
  // finish all 12 iterations on the survivors under kSkipUpdate. Worker 0
  // alone holds batch 0 here, so the master waits for it every iteration
  // and must see the EOF, and every iteration from the crash on fails to
  // recover. A worker whose batch others also hold is never waited for;
  // it can fall so far behind that it reaches the crash broadcast only
  // after the master's last iteration. At iteration 0 the worker dies
  // before its first reply.
  for (const std::size_t crash_iteration : {0u, 2u}) {
    SCOPED_TRACE("crash_iteration " + std::to_string(crash_iteration));
    auto config = live_config("process");
    config.crash_worker = 0;
    config.crash_iteration = crash_iteration;
    config.worker_timeout_ms = 5000;
    const auto record = driver::run_experiment(config);
    EXPECT_EQ(record.iterations_run, 12u);
    EXPECT_EQ(record.workers_lost, 1u);
    EXPECT_EQ(record.failures, 12u - crash_iteration);
    ASSERT_TRUE(record.final_loss.has_value());
    if (crash_iteration > 0) {
      EXPECT_LT(*record.final_loss, 0.69);  // better than the ln(2) start
    }
    EXPECT_TRUE(no_children_left());
  }
}

/// Records the thread each record reaches the sink on.
struct ThreadRecordingSink final : driver::RecordSink {
  void write(const driver::RunRecord& /*record*/) override {
    threads.push_back(std::this_thread::get_id());
  }
  std::vector<std::thread::id> threads;
};

TEST(ProcessRuntime, SweepRunsCellsOnTheCallingThreadAndEachSeesItsCrash) {
  SKIP_WITHOUT_PROCESS_SUPPORT();
  // Four threads are asked for, but process cells fork, so run_sweep
  // runs them one at a time on this thread: the pool would deliver
  // records on its own threads, and a worker forked while another
  // cell's thread held an allocator lock without a fork handler (ASan's)
  // would hang. Each cell must still count its own crash and leave no
  // child behind.
  driver::SweepPlan plan;
  plan.base = live_config("process");
  plan.base.scheme = "uncoded";
  plan.base.load = 1;
  plan.base.crash_worker = 0;
  plan.base.crash_iteration = 2;
  plan.base.worker_timeout_ms = 2000;
  plan.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  ThreadRecordingSink sink;
  driver::SweepOptions options;
  options.threads = 4;
  options.sink = &sink;
  const auto records = driver::run_sweep(plan, options);
  ASSERT_EQ(records.size(), 8u);
  for (const auto& record : records) {
    EXPECT_EQ(record.workers_lost, 1u) << "seed " << record.seed;
  }
  ASSERT_EQ(sink.threads.size(), 8u);
  for (const auto& thread : sink.threads) {
    EXPECT_EQ(thread, std::this_thread::get_id());
  }
  EXPECT_TRUE(no_children_left());
}

/// Plain gradient descent that throws on its third step, as a failing
/// optimizer would mid-run.
class ThrowsOnThirdStep final : public opt::IterativeOptimizer {
 public:
  explicit ThrowsOnThirdStep(std::size_t dim)
      : inner_(dim, opt::LearningRateSchedule::constant(0.1)) {}

  std::span<const double> query_point() const override {
    return inner_.query_point();
  }
  void apply_gradient(std::span<const double> grad) override {
    if (inner_.iteration() == 2) {
      throw std::runtime_error("optimizer failed");
    }
    inner_.apply_gradient(grad);
  }
  std::span<const double> weights() const override { return inner_.weights(); }
  std::size_t iteration() const override { return inner_.iteration(); }

 private:
  opt::GradientDescent inner_;
};

TEST(ProcessRuntime, ReapsWorkersWhenTrainingThrows) {
  SKIP_WITHOUT_PROCESS_SUPPORT();
  stats::Rng rng(9);
  data::SyntheticConfig dconf;
  dconf.num_features = 4;
  const auto problem = data::generate_logreg(4, dconf, rng);
  core::PerExampleSource source(problem.dataset);
  auto scheme = core::SchemeRegistry::instance().create(
      "uncoded", core::SchemeConfig{4, 4, 1, true}, rng);
  ProcessCluster cluster(*scheme, source);
  ThrowsOnThirdStep optimizer(dconf.num_features);
  ProcessTrainOptions options;
  options.iterations = 12;
  EXPECT_THROW(cluster.train(optimizer, options), std::runtime_error);
  EXPECT_TRUE(no_children_left());
}

TEST(ProcessRuntime, ElasticScenarioCompletesWithAbsenceWindow) {
  SKIP_WITHOUT_PROCESS_SUPPORT();
  auto config = live_config("process");
  config.scenario = "elastic:1@3-8";
  const auto record = driver::run_experiment(config);
  EXPECT_EQ(record.iterations_run, 12u);
  EXPECT_EQ(record.workers_lost, 0u);  // absence is planned, not a death
  ASSERT_TRUE(record.final_loss.has_value());
  EXPECT_TRUE(no_children_left());
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
