#pragma once

/// \file runtime_registry.hpp
/// Open registry of execution runtimes (DESIGN.md §9).
///
/// A runtime is published under a canonical CLI name plus optional
/// aliases, together with a factory and capability flags. The driver,
/// sweep planner, and tools select runtimes by name through this
/// registry, so adding an execution substrate is one
/// `RuntimeRegistration` call in the new runtime's translation unit — no
/// if/else ladder, enum, or name-table edits. The capability flags are
/// read in one place, `check_runnable`, which CLI parsing, sweep
/// planning and `run_experiment` all call: callers ask what a runtime
/// can do, not what it is called.
///
/// Registration discipline mirrors core::SchemeRegistry: register at
/// static-initialization time (via `RuntimeRegistration`) or during
/// single-threaded startup, before experiments run. Lookups are const
/// and may then be issued concurrently from sweep worker threads.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "driver/runtime.hpp"

namespace coupon::driver {

/// Static properties of a runtime that callers need before instantiating
/// one (config validation, sweep planning, `coupon_run --list`).
struct RuntimeCapabilities {
  /// Workers really compute gradients and the run trains a model (the
  /// threaded and process runtimes); false for the discrete-event
  /// simulator's timing-only mode.
  bool computes_gradients = false;
  /// Time is simulated, so latency-model knobs (per-worker profiles,
  /// message loss, ingress bandwidth) are expressible.
  bool simulated_clock = false;
  /// Honours ExperimentConfig::cluster_override (a caller-supplied
  /// simulated ClusterConfig).
  bool honours_cluster_override = false;
  /// Can run scenarios marked sim_only (simulator-side knobs).
  bool honours_sim_only_scenarios = false;
  /// Can run scenarios with an elasticity plan (live_only scenarios:
  /// workers join/leave mid-run).
  bool honours_elasticity = false;
  /// Workers are separate OS processes: crash injection
  /// (ExperimentConfig::crash_worker) is meaningful, and the runtime
  /// needs fork()/socket support from the sandbox.
  bool spawns_processes = false;
};

/// One registry entry: identity, documentation, capabilities, factory.
struct RuntimeEntry {
  std::string name;                  ///< canonical CLI spelling, e.g. "sim"
  std::vector<std::string> aliases;  ///< extra spellings, e.g. "threads"
  std::string description;           ///< one-line --list text
  RuntimeCapabilities caps;
  std::function<std::unique_ptr<Runtime>()> factory;
};

/// Process-wide name -> factory registry. The three built-in runtimes
/// are registered on first access, in presentation order
/// (sim, threaded, process).
class RuntimeRegistry {
 public:
  static RuntimeRegistry& instance();

  /// Registers `entry`. Throws std::invalid_argument when the name or any
  /// alias collides with an existing name/alias, or when the entry has no
  /// name or no factory.
  void add(RuntimeEntry entry);

  /// Looks up a canonical name or alias; nullptr when unknown. The
  /// returned pointer stays valid for the process lifetime.
  const RuntimeEntry* find(std::string_view name_or_alias) const;

  /// Builds the named runtime; nullptr for an unknown name (callers
  /// print `unknown_message` themselves).
  std::unique_ptr<Runtime> create(std::string_view name_or_alias) const;

  /// Canonical names in registration order.
  std::vector<std::string> names() const;

  /// "sim|threaded|process|..." for --help strings.
  std::string choices() const;

  /// "unknown runtime 'x' (did you mean 'y'? choices: ...)" — the shared
  /// diagnostic.
  std::string unknown_message(std::string_view name) const;

 private:
  RuntimeRegistry();  // registers the built-ins

  std::vector<RuntimeEntry> entries_;  // stable: entries are never removed
};

/// The runtime capability rules, in one place: throws
/// std::invalid_argument when `config.runtime` cannot run `config`.
/// Rejects an unknown runtime or scenario name, a sim-only or live-only
/// scenario the runtime cannot honour, a cluster_override it cannot
/// honour, a crash_worker on a runtime without processes or outside
/// [0, num_workers), and a negative worker_timeout_ms. Returns the
/// runtime's entry. `config_from_flags`, `expand_plan` (per cell) and
/// `run_experiment` all call it; `Runtime::run` assumes it passed.
const RuntimeEntry& check_runnable(const ExperimentConfig& config);

/// Self-registration helper: a namespace-scope
///   static const driver::RuntimeRegistration my_runtime{{.name = ...}};
/// in the runtime's translation unit publishes it before main() runs.
struct RuntimeRegistration {
  explicit RuntimeRegistration(RuntimeEntry entry) {
    RuntimeRegistry::instance().add(std::move(entry));
  }
};

}  // namespace coupon::driver
