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
#include "util/cli.hpp"
#include "util/table.hpp"

namespace coupon::driver {

/// Scenario one of the paper's EC2 experiments (Section III-C, Table I):
/// n = m = 50 (data batches of 100 points), r = 10 for the coded
/// schemes, 100 iterations, on the "shifted_exp" scenario, whose cluster
/// is simulate::ec2_cluster(). Seed 0xEC2001.
ExperimentConfig ec2_scenario_one();

/// Scenario two (Table II): as scenario one with n = m = 100. Seed
/// 0xEC2002.
ExperimentConfig ec2_scenario_two();

/// Registers the driver's shared flags (--scheme, --scenario, --runtime,
/// --workers, --units, --load, --iterations, --seed, --on_failure, and
/// the threaded workload knobs) with their paper defaults.
void add_experiment_flags(CliFlags& flags);

/// Reads the flags registered by `add_experiment_flags` back into a
/// config. Prints a diagnostic and returns nullopt on an unknown scheme,
/// failure-policy, objective, or optimizer spelling, or on any config
/// `check_runnable` (runtime_registry.hpp) rejects.
std::optional<ExperimentConfig> config_from_flags(const CliFlags& flags);

/// The scheme-shape rules, in one place: throws std::invalid_argument
/// ("scheme 'bcc' requires n >= ceil(m/r), got n=5 m=100 r=2") on an
/// unknown scheme or a shape its factory would assert on. Every scheme
/// needs n, m, r >= 1; `requires_units_equal_workers` adds m == n and
/// r <= n, `requires_load_divides_workers` adds r | n; uncoded needs
/// m >= n, simple_random r <= m and BCC n >= ceil(m/r).
/// `run_experiment` and `expand_plan` (per cell) call it; the scheme
/// factories keep their asserts as internal invariants.
void check_scheme_shape(const ExperimentConfig& config);

/// Runs one (scheme, scenario, runtime) cell through the named runtime.
/// Throws std::invalid_argument on an unknown name (the message lists
/// the registered choices) or a config `check_runnable` or
/// `check_scheme_shape` rejects.
RunRecord run_experiment(const ExperimentConfig& config);

/// Renders records as the standard Table I/II breakdown (scheme,
/// recovery threshold, per-phase times, total).
AsciiTable summary_table(const std::vector<RunRecord>& records);

/// Percentage speedup of `ours` over `baseline` in total running time
/// (e.g. 0.854 means 85.4% faster, the paper's headline comparison).
double speedup_fraction(const RunRecord& ours, const RunRecord& baseline);

}  // namespace coupon::driver
