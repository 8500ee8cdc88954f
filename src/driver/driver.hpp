#pragma once

/// \file driver.hpp
/// Unified experiment driver: one configuration struct + one entry point
/// that runs scheme x scenario x runtime and returns a typed `RunRecord`
/// (record.hpp sinks render CSV/JSONL). `tools/coupon_run` is a thin CLI
/// shell over this layer plus sweep.hpp, and the table/figure benches
/// share its scenario handling and rendering instead of each rolling
/// their own.

#include <optional>
#include <string>
#include <vector>

#include "driver/experiment_config.hpp"
#include "driver/record.hpp"
#include "driver/runtime.hpp"
#include "driver/scenario_registry.hpp"
#include "simulate/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace coupon::driver {

/// Builds a driver config from a canonical simulate scenario definition
/// (simulate::ec2_scenario_one/two), copying n, m, r, iterations, seed —
/// so the paper's Table I/II parameters stay single-sourced — AND the
/// scenario's cluster model, carried through as `cluster_override`.
/// Callers holding a ScenarioConfig with a customized `cluster` (e.g. the
/// ablation benches' drop/bandwidth sweeps) therefore get their overrides
/// honoured by the simulated runtime instead of silently discarded; the
/// threaded runtime rejects such configs loudly.
ExperimentConfig config_from_sim_scenario(const simulate::ScenarioConfig& s);

/// Registers the driver's shared flags (--scheme, --scenario, --runtime,
/// --workers, --units, --load, --iterations, --seed, --on_failure, and
/// the threaded workload knobs) with their paper defaults.
void add_experiment_flags(CliFlags& flags);

/// Reads the flags registered by `add_experiment_flags` back into a
/// config. Prints a diagnostic and returns nullopt on an unknown scheme,
/// failure-policy, objective, or optimizer spelling, or on any config
/// `check_runnable` (runtime_registry.hpp) rejects.
std::optional<ExperimentConfig> config_from_flags(const CliFlags& flags);

/// Runs one (scheme, scenario, runtime) cell through the named runtime.
/// Throws std::invalid_argument on an unknown name (the message lists
/// the registered choices) or a config `check_runnable` rejects.
RunRecord run_experiment(const ExperimentConfig& config);

/// Renders records as the standard Table I/II breakdown (scheme,
/// recovery threshold, per-phase times, total).
AsciiTable summary_table(const std::vector<RunRecord>& records);

/// Percentage speedup of `ours` over `baseline` in total running time
/// (e.g. 0.854 means 85.4% faster, the paper's headline comparison).
double speedup_fraction(const RunRecord& ours, const RunRecord& baseline);

}  // namespace coupon::driver
