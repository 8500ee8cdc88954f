#pragma once

/// \file sweep.hpp
/// Declarative cartesian experiment sweeps (DESIGN.md §4).
///
/// A `SweepPlan` names the axes — schemes × scenarios × {n, m, r,
/// iterations, seed} — over a base `ExperimentConfig` that supplies every
/// non-swept field. `expand_plan` resolves the cartesian product into
/// fully-specified cells in a deterministic order; `run_sweep` executes
/// the cells on a `coupon::ThreadPool` and streams the finished
/// `RunRecord`s to a `RecordSink` *in cell order*, regardless of which
/// worker finishes first. Cells of a runtime that forks workers
/// (`RuntimeCapabilities::spawns_processes`) run one at a time on the
/// calling thread instead (see `SweepOptions::threads`).
///
/// Determinism contract: each cell is run exactly as `run_experiment`
/// would run it standalone — its RNG stream is seeded from the cell's own
/// config, never from execution order — so a *simulated*-runtime sweep's
/// output is bit-identical to a serial (threads = 1) run of the same
/// plan, and any single cell can be reproduced with one `coupon_run`
/// invocation. Threaded-runtime cells involve real concurrency: their
/// combinatorial setup is just as seed-determined, but the wall-clock
/// fields measure actual elapsed time (and concurrent cells contend for
/// cores), so timing columns are not bit-reproducible — sweep threaded
/// cells serially when the wall-clock numbers are the point.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "driver/experiment_config.hpp"
#include "driver/record.hpp"

namespace coupon::driver {

/// A cartesian sweep description. Empty axis = "take the base config's
/// value"; the `units` axis additionally defaults to *tracking the
/// workers axis* (m = n), which is what every paper scenario and the
/// CR/FR placement constraint want.
struct SweepPlan {
  /// Template for all non-swept fields (runtime, threaded knobs, ...).
  /// Note `base.record_trace`: sweeps that only stream to summary sinks
  /// (CsvSummarySink / JsonlSink without include_trace) should set it to
  /// false so simulated cells never materialize per-iteration traces —
  /// that is the difference between the sweep engine scaling with the
  /// iteration *count* and scaling with the trace *storage*.
  ExperimentConfig base;

  std::vector<std::string> schemes;      ///< registry names; {} = {base.scheme}
  std::vector<std::string> scenarios;    ///< {} = {base.scenario}
  std::vector<std::size_t> workers;      ///< n axis; {} = {base.num_workers}
  std::vector<std::size_t> units;        ///< m axis; {} = m tracks n
  std::vector<std::size_t> loads;        ///< r axis; {} = {base.load}
  std::vector<std::size_t> iterations;   ///< {} = {base.iterations}
  std::vector<std::uint64_t> seeds;      ///< {} = {base.seed}
};

/// One resolved cell of the product.
struct SweepCell {
  std::size_t index = 0;  ///< linear position in expansion order
  ExperimentConfig config;
};

/// Expands the plan into cells. Axis nesting, outermost to innermost:
/// scheme, scenario, workers, units, load, iterations, seed. Validates
/// every cell up front through `check_scheme_shape` (driver.hpp: unknown
/// scheme names, m != n for CR/FR, r not dividing n for FR) and
/// `check_runnable` (runtime_registry.hpp), each of which sees the
/// cell's own n, and throws std::invalid_argument, so a sweep cannot
/// fail halfway through.
std::vector<SweepCell> expand_plan(const SweepPlan& plan);

struct SweepOptions {
  /// Worker threads: 0 = hardware concurrency, 1 = serial (no pool).
  /// A plan whose runtime spawns processes always runs serially on the
  /// calling thread: the child of a multi-threaded process may make only
  /// async-signal-safe calls (POSIX), and a worker allocates. glibc's
  /// malloc locks itself around fork(), but libasan's does not, and a
  /// worker forked while another cell's thread held one of its locks
  /// hung in its first allocation. Each cell's workers run in parallel
  /// anyway.
  std::size_t threads = 0;
  /// Optional streaming consumer; receives records in cell order.
  RecordSink* sink = nullptr;
  /// Ignored: `run_sweep` runs one cell per pool task (DESIGN.md §7.5).
  /// Kept only so callers that still assign it keep compiling.
  std::size_t sim_batch = 8;
};

/// Executes every cell and returns the records in cell order. Each cell
/// is one `run_experiment` call and one task on a coupon::ThreadPool
/// sized by `options.threads`; if any cell throws, the remaining cells
/// still finish (and still reach the sink) and the first exception (by
/// cell order) is rethrown after the pool drains.
std::vector<RunRecord> run_sweep(const SweepPlan& plan,
                                 const SweepOptions& options = {});

}  // namespace coupon::driver
