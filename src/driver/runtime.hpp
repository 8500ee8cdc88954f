#pragma once

/// \file runtime.hpp
/// The unified execution-substrate interface (DESIGN.md §2, §4).
///
/// A `Runtime` turns one fully-resolved `ExperimentConfig`, and the
/// training workload drawn for it (workload.hpp), into one typed
/// `RunRecord`. The three implementations are the discrete-event
/// simulator (`SimulatedRuntime`, no gradients computed), the real-thread
/// training cluster (`ThreadedRuntime`), and the multi-process socket
/// cluster (`ProcessRuntime`). Runtimes are published through
/// `RuntimeRegistry` (runtime_registry.hpp) with capability flags; a new
/// backend is one more subclass plus a `RuntimeRegistration` — callers
/// never branch on a runtime enum or name.

#include <string_view>

#include "driver/experiment_config.hpp"
#include "driver/record.hpp"

namespace coupon::driver {

struct TrainingWorkload;

/// Polymorphic execution substrate.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Canonical runtime name stamped into records ("sim", "threaded").
  virtual std::string_view name() const = 0;

  /// Runs one (scheme, scenario) cell. Expects a config that passed
  /// `check_runnable` (runtime_registry.hpp), and, when the cell trains
  /// (`trains`, workload.hpp, is the one rule), a workload drawn for a
  /// config with the cell's `workload_key`; null otherwise. A body trains
  /// exactly when it is given a workload. `run_experiment` checks and
  /// draws first; `run_sweep` shares one draw among the cells of a task.
  /// The run reads the workload and resumes from a copy of its generator,
  /// so it draws what a standalone run draws. Throws
  /// std::invalid_argument on an unknown scheme or scenario name.
  virtual RunRecord run(const ExperimentConfig& config,
                        const TrainingWorkload* workload) const = 0;
};

/// Discrete-event cluster model (simulate/cluster_sim.hpp): per-iteration
/// latency traces, no gradients computed; given a workload (`train`), real
/// gradients over simulated time instead.
class SimulatedRuntime final : public Runtime {
 public:
  std::string_view name() const override { return "sim"; }
  RunRecord run(const ExperimentConfig& config,
                const TrainingWorkload* workload) const override;
};

/// Real master/worker threads training synthetic logistic regression
/// (runtime/thread_cluster.hpp): wall-clock summary plus final loss and
/// train accuracy. Every run trains, so `workload` is never null; the
/// same holds for `ProcessRuntime`.
class ThreadedRuntime final : public Runtime {
 public:
  std::string_view name() const override { return "threaded"; }
  RunRecord run(const ExperimentConfig& config,
                const TrainingWorkload* workload) const override;
};

/// Worker OS processes over framed stream sockets
/// (runtime/process_cluster.hpp): the same master protocol as the
/// threaded runtime, plus real crash tolerance — a SIGKILLed worker is
/// detected via socket EOF and resolved by the FailurePolicy.
class ProcessRuntime final : public Runtime {
 public:
  std::string_view name() const override { return "process"; }
  RunRecord run(const ExperimentConfig& config,
                const TrainingWorkload* workload) const override;
};

}  // namespace coupon::driver
