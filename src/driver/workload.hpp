#pragma once

/// \file workload.hpp
/// The synthetic training problem of one cell, drawn apart from the run
/// so that cells which name the same problem can share one draw
/// (DESIGN.md §7.5).
///
/// A training run draws its data first and then its scheme from one
/// generator seeded with the cell's seed. The data draw reads only the
/// seed, the objective, m, the examples per unit and p, so cells that
/// agree on those five (`workload_key`) draw bit-identical workloads and
/// leave the generator in the same state. `run_experiment` draws and then
/// runs; `run_sweep` draws once for a run of such cells and runs each of
/// them on the one workload.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/gradient_source.hpp"
#include "data/batching.hpp"
#include "data/synthetic.hpp"
#include "driver/experiment_config.hpp"
#include "stats/rng.hpp"

namespace coupon::driver {

struct RuntimeCapabilities;

/// One cell's drawn problem: dataset, unit gradient source and loss, plus
/// the generator as the draw left it. Owns everything the source and the
/// loss reference, so it is never moved once drawn, and a run only reads
/// it: cells may share one.
struct TrainingWorkload {
  data::SyntheticProblem problem;
  std::optional<data::BatchPartition> partition;  ///< logistic only
  std::unique_ptr<core::UnitGradientSource> source;
  std::function<double(std::span<const double>)> loss;
  bool has_accuracy = false;  ///< classification objectives only
  /// The generator right after the data draw. A run resumes from a copy
  /// of it: the scheme's draws (and the simulator's latencies) follow.
  stats::Rng rng;
};

/// Everything a workload's draw reads. Cells with equal keys draw
/// bit-identical workloads.
struct WorkloadKey {
  std::uint64_t seed = 0;
  std::string objective;
  std::size_t units = 0;
  std::size_t examples_per_unit = 0;
  std::size_t features = 0;

  auto operator<=>(const WorkloadKey&) const = default;
};

WorkloadKey workload_key(const ExperimentConfig& config);

/// True when `config` trains on a runtime with capabilities `caps`:
/// every run of a runtime that computes gradients, and the simulator's
/// `train` runs. A training run takes a drawn workload; any other run
/// takes none.
bool trains(const ExperimentConfig& config, const RuntimeCapabilities& caps);

/// Draws `config`'s workload from `stats::Rng(config.seed)`. "logistic"
/// is the paper's model: m units of `examples_per_unit` points each
/// ("super examples", footnote 1). "least_squares" is the linear-
/// regression variant with one example per unit. Expects an objective
/// `check_runnable` accepted.
std::unique_ptr<const TrainingWorkload> draw_workload(
    const ExperimentConfig& config);

}  // namespace coupon::driver
