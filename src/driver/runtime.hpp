#pragma once

/// \file runtime.hpp
/// The unified execution-substrate interface (DESIGN.md §2, §4).
///
/// A `Runtime` turns one fully-resolved `ExperimentConfig` into one typed
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

/// Polymorphic execution substrate.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Canonical runtime name stamped into records ("sim", "threaded").
  virtual std::string_view name() const = 0;

  /// Runs one (scheme, scenario) cell. Expects a config that passed
  /// `check_runnable` (runtime_registry.hpp), which `run_experiment`
  /// calls first. Throws std::invalid_argument on an unknown scheme or
  /// scenario name.
  virtual RunRecord run(const ExperimentConfig& config) const = 0;
};

/// Discrete-event cluster model (simulate/cluster_sim.hpp): per-iteration
/// latency traces, no gradients computed.
class SimulatedRuntime final : public Runtime {
 public:
  std::string_view name() const override { return "sim"; }
  RunRecord run(const ExperimentConfig& config) const override;
};

/// Real master/worker threads training synthetic logistic regression
/// (runtime/thread_cluster.hpp): wall-clock summary plus final loss and
/// train accuracy.
class ThreadedRuntime final : public Runtime {
 public:
  std::string_view name() const override { return "threaded"; }
  RunRecord run(const ExperimentConfig& config) const override;
};

/// Worker OS processes over framed stream sockets
/// (runtime/process_cluster.hpp): the same master protocol as the
/// threaded runtime, plus real crash tolerance — a SIGKILLed worker is
/// detected via socket EOF and resolved by the FailurePolicy.
class ProcessRuntime final : public Runtime {
 public:
  std::string_view name() const override { return "process"; }
  RunRecord run(const ExperimentConfig& config) const override;
};

}  // namespace coupon::driver
