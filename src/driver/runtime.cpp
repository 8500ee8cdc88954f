#include "driver/runtime.hpp"

#include <chrono>
#include <stdexcept>

#include "core/gradient_source.hpp"
#include "core/scheme_registry.hpp"
#include "data/batching.hpp"
#include "data/synthetic.hpp"
#include "driver/scenario_registry.hpp"
#include "engine/simulated_provider.hpp"
#include "engine/training_engine.hpp"
#include "opt/least_squares.hpp"
#include "opt/logistic.hpp"
#include "opt/optimizer.hpp"
#include "runtime/process_cluster.hpp"
#include "runtime/thread_cluster.hpp"
#include "simulate/cluster_sim.hpp"
#include "stats/rng.hpp"
#include "util/assert.hpp"

namespace coupon::driver {

namespace {

/// Resolves names to canonical spellings and stamps the run identity.
RunRecord identity_record(const ExperimentConfig& config,
                          std::string_view runtime_name) {
  const core::SchemeEntry* scheme =
      core::SchemeRegistry::instance().find(config.scheme);
  if (scheme == nullptr) {
    throw std::invalid_argument(
        core::SchemeRegistry::instance().unknown_message(config.scheme));
  }
  RunRecord record;
  record.scheme = scheme->name;  // canonical even when selected by alias
  record.scenario = config.scenario;
  record.runtime = std::string(runtime_name);
  record.num_workers = config.num_workers;
  record.num_units = config.num_units;
  record.load = config.load;
  record.iterations = config.iterations;
  record.seed = config.seed;
  record.approximate_recovery = scheme->caps.approximate_recovery;
  return record;
}

core::SchemeConfig scheme_config(const ExperimentConfig& config,
                                 bool default_seed_first_batches) {
  core::SchemeConfig sconf;
  sconf.num_workers = config.num_workers;
  sconf.num_units = config.num_units;
  sconf.load = config.load;
  sconf.bcc_seed_first_batches =
      config.bcc_seed_first_batches.value_or(default_seed_first_batches);
  return sconf;
}

/// The synthetic training problem of one cell: dataset, unit gradient
/// source, and loss. Owns everything the source references, so it must
/// outlive the run and never be moved after `build_workload`.
struct TrainingWorkload {
  data::SyntheticProblem problem;
  std::optional<data::BatchPartition> partition;  // logistic only
  std::unique_ptr<core::UnitGradientSource> source;
  std::function<double(std::span<const double>)> loss;
  bool has_accuracy = false;  ///< classification objectives only
};

/// Materializes the cell's objective into `out`, drawing data from `rng`.
/// "logistic" is the paper's model: m units of `examples_per_unit` points
/// each ("super examples", footnote 1). "least_squares" is the linear-
/// regression variant with one example per unit.
void build_workload(const ExperimentConfig& config, stats::Rng& rng,
                    TrainingWorkload& out) {
  data::SyntheticConfig dconf;
  dconf.num_features = config.features;
  if (config.objective == "logistic") {
    const std::size_t num_examples =
        config.num_units * config.examples_per_unit;
    out.problem = data::generate_logreg(num_examples, dconf, rng);
    out.partition.emplace(num_examples, config.examples_per_unit);
    COUPON_ASSERT(out.partition->num_batches() == config.num_units);
    out.source = std::make_unique<core::GroupedBatchSource>(
        out.problem.dataset, *out.partition);
    const data::Dataset* dataset = &out.problem.dataset;
    out.loss = [dataset](std::span<const double> w) {
      return opt::logistic_loss(*dataset, w);
    };
    out.has_accuracy = true;
  } else if (config.objective == "least_squares") {
    out.problem = data::generate_linreg(config.num_units, dconf,
                                        /*noise_stddev=*/0.2, rng);
    out.source =
        std::make_unique<core::LeastSquaresExampleSource>(out.problem.dataset);
    const data::Dataset* dataset = &out.problem.dataset;
    out.loss = [dataset](std::span<const double> w) {
      return opt::squared_loss(*dataset, w);
    };
  } else {
    throw std::invalid_argument("unknown objective '" + config.objective +
                                "' (choices: logistic|least_squares)");
  }
}

std::unique_ptr<opt::IterativeOptimizer> make_optimizer(
    const ExperimentConfig& config) {
  const auto schedule =
      config.lr_decay > 0.0
          ? opt::LearningRateSchedule::inverse_time(config.learning_rate,
                                                    config.lr_decay)
          : opt::LearningRateSchedule::constant(config.learning_rate);
  if (config.optimizer == "nesterov") {
    return std::make_unique<opt::NesterovGradient>(config.features, schedule);
  }
  if (config.optimizer == "gd") {
    return std::make_unique<opt::GradientDescent>(config.features, schedule);
  }
  if (config.optimizer == "heavy_ball") {
    return std::make_unique<opt::HeavyBallGradient>(config.features, schedule);
  }
  if (config.optimizer == "adagrad") {
    return std::make_unique<opt::AdaGrad>(config.features, schedule);
  }
  throw std::invalid_argument(
      "unknown optimizer '" + config.optimizer +
      "' (choices: nesterov|gd|heavy_ball|adagrad)");
}

engine::TrainOptions engine_options(const ExperimentConfig& config,
                                    const TrainingWorkload& workload) {
  engine::TrainOptions options;
  options.iterations = config.iterations;
  options.on_failure = config.on_failure;
  options.loss_fn = workload.loss;
  options.record_loss_history = config.record_loss_history;
  options.target_loss = config.target_loss;
  options.stop_at_target = config.stop_at_target;
  // identity_record already validated the scheme name against the
  // registry, so the entry exists here.
  options.approximate_recovery = core::SchemeRegistry::instance()
                                     .find(config.scheme)
                                     ->caps.approximate_recovery;
  return options;
}

void fill_convergence_fields(const engine::TrainReport& report,
                             const TrainingWorkload& workload,
                             RunRecord& record) {
  record.recovery_threshold = report.workers_heard.mean();
  record.total_time = report.elapsed_seconds;
  record.mean_units = report.units_received.mean();
  record.failures = report.failed_iterations;
  record.partial_iterations = report.partial_iterations;
  record.iterations_run = report.iterations_run;
  record.final_loss = report.final_loss;
  record.time_to_target = report.time_to_target;
  record.approximate_iterations = report.approximate_iterations;
  if (workload.has_accuracy) {
    record.train_accuracy =
        opt::accuracy(workload.problem.dataset, report.weights);
  }
}

/// The live runtimes' one body. Data first, then the scheme — the same
/// draw order as the simulated runtime's training mode — so rng(seed)
/// names the same problem and scheme on every substrate, and an
/// undisturbed process run's final loss matches the threaded run's
/// bit-for-bit (for schemes with arrival-order-independent decodes).
RunRecord run_live(const ExperimentConfig& config,
                   std::string_view runtime_name, bool spawn_processes) {
  const Scenario scenario = ScenarioRegistry::instance().build(
      config.scenario, config.num_workers);
  RunRecord record = identity_record(config, runtime_name);

  stats::Rng rng(config.seed);
  TrainingWorkload workload;
  build_workload(config, rng, workload);
  // Seeded first batches (by default) guarantee per-iteration BCC
  // coverage, matching the quickstart's real-training setup.
  auto scheme = core::SchemeRegistry::instance().create(
      config.scheme, scheme_config(config, /*default_seed_first_batches=*/true),
      rng);
  record.scheme_display = std::string(scheme->name());
  auto optimizer = make_optimizer(config);

  runtime::ProcessTrainOptions options;
  static_cast<engine::TrainOptions&>(options) =
      engine_options(config, workload);
  options.straggler = scenario.straggler;
  options.elasticity = scenario.elasticity;
  engine::TrainReport report;
  if (spawn_processes) {
    options.worker_timeout =
        std::chrono::milliseconds(config.worker_timeout_ms);
    if (config.crash_worker) {
      options.crash = runtime::CrashPlan{.worker = *config.crash_worker,
                                         .iteration = config.crash_iteration};
    }
    runtime::ProcessCluster cluster(*scheme, *workload.source,
                                    config.seed + 42);
    runtime::ProcessTrainResult result = cluster.train(*optimizer, options);
    report = std::move(result.report);
    record.workers_lost = result.workers_lost;
  } else {
    runtime::ThreadCluster cluster(*scheme, *workload.source,
                                   config.seed + 42);
    report = cluster.train(*optimizer, options);
  }

  fill_convergence_fields(report, workload, record);
  record.loss_history = std::move(report.loss_history);
  return record;
}

}  // namespace

RunRecord SimulatedRuntime::run(const ExperimentConfig& config) const {
  const Scenario scenario = ScenarioRegistry::instance().build(
      config.scenario, config.num_workers);
  RunRecord record = identity_record(config, name());

  // A caller-supplied cluster model wins over the named scenario's.
  const simulate::ClusterConfig& cluster =
      config.cluster_override ? *config.cluster_override : scenario.cluster;

  if (config.train) {
    // Convergence mode: the shared TrainingEngine over the simulated
    // provider — kernel arrival order and ingress timing coupled with
    // real gradients. Data first, then the scheme, mirroring the
    // threaded runtime's draw order so a seed names the same problem on
    // both substrates.
    stats::Rng rng(config.seed);
    TrainingWorkload workload;
    build_workload(config, rng, workload);
    auto scheme = core::SchemeRegistry::instance().create(
        config.scheme,
        scheme_config(config, /*default_seed_first_batches=*/true), rng);
    record.scheme_display = std::string(scheme->name());

    engine::SimulatedProvider provider(*scheme, *workload.source, cluster,
                                       rng);
    engine::TrainingEngine protocol(*scheme, *workload.source, provider);
    auto optimizer = make_optimizer(config);
    engine::TrainReport report =
        protocol.train(*optimizer, engine_options(config, workload));

    fill_convergence_fields(report, workload, record);
    record.comm_time = report.comm_seconds;
    record.compute_time = report.compute_seconds;
    record.loss_history = std::move(report.loss_history);
    return record;
  }

  stats::Rng rng(config.seed);
  auto scheme = core::SchemeRegistry::instance().create(
      config.scheme, scheme_config(config, /*default_seed_first_batches=*/false),
      rng);
  record.scheme_display = std::string(scheme->name());

  simulate::RunOptions options;
  options.iterations = config.iterations;
  options.record_trace = config.record_trace;
  simulate::RunReport run = simulate_run(*scheme, cluster, options, rng);

  record.trace = std::move(run.iterations);
  record.recovery_threshold = run.workers_heard.mean();
  record.comm_time = run.total_comm_time;
  record.compute_time = run.total_compute_time;
  record.total_time = run.total_time;
  record.mean_units = run.units_received.mean();
  record.failures = run.failures;
  record.iterations_run = config.iterations;
  return record;
}

RunRecord ThreadedRuntime::run(const ExperimentConfig& config) const {
  return run_live(config, name(), /*spawn_processes=*/false);
}

RunRecord ProcessRuntime::run(const ExperimentConfig& config) const {
  return run_live(config, name(), /*spawn_processes=*/true);
}

}  // namespace coupon::driver
