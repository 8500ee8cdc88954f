#pragma once

/// \file experiment_config.hpp
/// The fully-resolved description of one experiment cell: which scheme,
/// scenario, and runtime (all by registry name), the problem shape, the
/// training workload, and the runtime-specific knobs. Consumed by
/// `Runtime::run` and produced by CLI parsing (driver.hpp) and
/// `SweepPlan` expansion (sweep.hpp).
///
/// Deliberately light on includes: the simulator cluster model is held
/// behind a forward-declared shared_ptr and the failure policy comes
/// from the tiny engine/types.hpp, so driver consumers do not rebuild
/// when the simulation engine or the threaded transport change.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "engine/types.hpp"

namespace coupon::simulate {
struct ClusterConfig;
}

namespace coupon::driver {

/// Everything `run_experiment` needs; defaults reproduce the paper's
/// scenario one (n = 50 workers, m = 50 units, r = 10).
struct ExperimentConfig {
  std::string scheme = "bcc";            ///< core::SchemeRegistry name
  std::string scenario = "shifted_exp";  ///< driver::ScenarioRegistry name
  std::string runtime = "sim";           ///< runtime name (runtime.hpp)
  std::size_t num_workers = 50;
  std::size_t num_units = 50;
  std::size_t load = 10;
  std::size_t iterations = 100;
  std::uint64_t seed = 1;

  /// Simulated runtime, timing-only mode: record the per-iteration
  /// latency trace into `RunRecord::trace`. Defaults to true so single
  /// runs keep feeding the trace-CSV/JSONL renderers; summary-only
  /// consumers (sweeps streaming to summary sinks — see `coupon_run
  /// --sweep` and the table/figure benches) turn it off so
  /// `simulate_run` never materializes per-iteration storage. Ignored by
  /// the threaded runtime and by training runs, whose records never
  /// carry a latency trace.
  bool record_trace = true;

  /// When set, replaces the named scenario's simulator cluster model —
  /// the carrier for callers with a custom simulated cluster (e.g.
  /// examples/compare_schemes' flags, bench/ablation_master_bw's
  /// bandwidth sweep). Simulated runtime only: the threaded runtime
  /// fails loudly on a set override instead of silently ignoring it. (A
  /// shared_ptr so this header needs no simulator includes; the pointee
  /// is never mutated after construction.)
  std::shared_ptr<const simulate::ClusterConfig> cluster_override;

  // --- training workload (threaded runtime always trains; the simulated
  // --- runtime trains when `train` is set, else measures timing only) --

  /// Simulated runtime: couple the iteration kernel's arrival order and
  /// recovery times with real gradients (engine/simulated_provider.hpp),
  /// producing loss-vs-simulated-seconds convergence records.
  bool train = false;
  /// Objective: "logistic" (the paper's synthetic model; units are
  /// batches of `examples_per_unit` points) or "least_squares" (linear
  /// regression; one example per unit).
  std::string objective = "logistic";
  /// Optimizer: "nesterov" (the paper's), "gd", "heavy_ball", "adagrad".
  std::string optimizer = "nesterov";
  std::size_t features = 20;
  std::size_t examples_per_unit = 20;
  double learning_rate = 2.0;
  /// Inverse-time learning-rate decay: mu_t = learning_rate/(1+decay*t).
  double lr_decay = 0.0;
  /// When set, `RunRecord::time_to_target` reports the elapsed seconds
  /// at which the training loss first reached this value.
  std::optional<double> target_loss;
  /// Stop a training run as soon as target_loss is reached.
  bool stop_at_target = false;
  /// Record the per-iteration (seconds, loss) curve into
  /// `RunRecord::loss_history`.
  bool record_loss_history = false;
  /// What the master does on an unrecoverable iteration.
  engine::FailurePolicy on_failure = engine::FailurePolicy::kSkipUpdate;
  /// BCC only: deterministic first-batch coverage aid (DESIGN.md §5.3).
  /// nullopt = the runtime's default (timing-only simulation: false,
  /// matching the paper's fully random choice; training runs: true,
  /// matching the quickstart's real-training setup).
  std::optional<bool> bcc_seed_first_batches;

  // --- process runtime only (rejected loudly elsewhere) ----------------

  /// Master-side wait deadline per gradient arrival before the
  /// iteration's outstanding replies are abandoned to the FailurePolicy.
  /// Bounds a hung-but-alive worker; crashed workers are detected
  /// immediately via socket EOF. 0 = wait forever.
  std::int64_t worker_timeout_ms = 10000;
  /// Crash drill: this worker raises SIGKILL on receiving the broadcast
  /// of `crash_iteration` — exercises EOF detection and FailurePolicy
  /// recovery on a real process.
  std::optional<std::size_t> crash_worker;
  std::size_t crash_iteration = 0;
};

}  // namespace coupon::driver
