#pragma once

/// \file workloads.hpp
/// The four benchmark workloads and the building blocks they share with
/// the self-test. Every cell is built exactly as the library's own driver
/// builds it (same registries, same RNG draw order), so a cell driven here
/// one at a time — plain or through the tracing decorators — must
/// reproduce the record `driver::run_sweep` produced for it, bit for bit.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "driver/experiment_config.hpp"
#include "driver/record.hpp"
#include "driver/sweep.hpp"
#include "engine/training_engine.hpp"
#include "simulate/iteration_report.hpp"
#include "tracing.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Workload names, in the order the benchmark lists them.
const std::vector<std::string>& workload_names();

/// Runs one workload. Throws std::invalid_argument on an unknown name.
Result run_workload(const RunArgs& args);

/// The grid of a sweep workload.
struct SweepShape {
  std::vector<std::string> schemes;
  std::vector<std::string> scenarios;
  std::vector<std::size_t> workers;  ///< m tracks n
  std::size_t load = 10;
  std::size_t seeds = 1;
  std::size_t iterations = 100;
  // Training sweeps only.
  bool train = false;
  std::size_t features = 100;
  std::size_t examples_per_unit = 20;
  double target_loss = 0.0;
};

SweepShape sim_sweep_shape();
SweepShape train_sweep_shape();

/// The sweep plan of `shape`, with cell seeds derived from `seed`.
coupon::driver::SweepPlan make_plan(const SweepShape& shape,
                                    std::uint64_t seed);

/// Driver-cut phase totals of cells run one at a time. Training cells and
/// the simulation phases are cut at the stamps of a `TraceSink`.
struct PhaseTotals {
  std::uint64_t iterations = 0;
  double wall_s = 0.0;     ///< sum of per-iteration wall times
  double draw_s = 0.0;     ///< simulation: iteration start to last draw
  double select_s = 0.0;   ///< simulation: last draw to first offer
  double scan_s = 0.0;     ///< simulation: first offer to iteration end
  double prefix_use = 0.0; ///< sum over iterations of K / start prefix
  std::vector<double> iteration_s;  ///< each iteration's wall time
};

/// One sweep cell, built as `SimulatedRuntime` builds it: the scenario, the
/// scheme (placement, coding matrix), and either the latency model and
/// kernel arenas (timing-only) or the dataset, simulated provider,
/// optimizer and train loop (training); with `sink`, through the
/// decorators. Construction is the cell's set-up, `run` its timed part.
class BuiltCell {
 public:
  BuiltCell(const coupon::driver::ExperimentConfig& config, TraceSink* sink);
  ~BuiltCell();
  BuiltCell(const BuiltCell&) = delete;
  BuiltCell& operator=(const BuiltCell&) = delete;

  /// Runs the cell once, one iteration at a time (`IterationKernel::run`
  /// or `TrainLoop::step`), adding each iteration's wall time and, traced,
  /// its phase cuts to `phases`. Timing-only cells fill the record's
  /// summary fields only.
  coupon::driver::RunRecord run(PhaseTotals* phases);

  /// The undecorated scheme and cluster: the oracle's inputs.
  const coupon::core::Scheme& scheme() const;
  const coupon::simulate::ClusterConfig& cluster() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// True when every summary, convergence, and loss-history field of the two
/// records is bitwise equal.
bool same_record(const coupon::driver::RunRecord& a,
                 const coupon::driver::RunRecord& b);

/// The giant-cluster cell: one scheme at n = m = `workers`, driven one
/// kernel iteration at a time.
struct GiantShape {
  std::string scheme = "bcc";
  std::string scenario = "shifted_exp";
  std::size_t workers = 1'000'000;
  std::size_t load = 40;
};

class GiantCell {
 public:
  /// Builds the scheme (placement), latency model and kernel arenas from
  /// `seed`; with `sink`, through the decorators.
  GiantCell(const GiantShape& shape, std::uint64_t seed, TraceSink* sink);
  ~GiantCell();
  GiantCell(const GiantCell&) = delete;
  GiantCell& operator=(const GiantCell&) = delete;

  coupon::simulate::IterationReport step();
  std::size_t start_prefix() const;
  const coupon::core::Scheme& scheme() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// The process-runtime cell.
struct LiveShape {
  std::string scheme = "bcc";
  std::string scenario = "no_stragglers";
  std::size_t workers = 4;
  std::size_t load = 2;
  std::size_t features = 100;
  std::size_t examples_per_unit = 20;
  double learning_rate = 2.0;
};

struct LiveOutcome {
  coupon::engine::TrainReport report;
  double build_s = 0.0;        ///< dataset + scheme
  double connect_s = 0.0;      ///< train() call to the first broadcast
  std::vector<double> cycle_s; ///< per-iteration wall (step end to step end)
  double run_s = 0.0;          ///< first broadcast to last step end
  double final_loss = 0.0;
  std::size_t workers_lost = 0;
};

/// Forks `shape.workers` worker processes and trains for `iterations`;
/// with `sink`, master-side decorators write it and each worker writes
/// `worker_sinks[worker]` (which must live in memory shared across fork).
LiveOutcome run_live(const LiveShape& shape, std::uint64_t seed,
                     std::size_t iterations, TraceSink* sink,
                     TraceSink* worker_sinks);

}  // namespace perfbench
