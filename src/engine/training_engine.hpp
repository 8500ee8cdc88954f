#pragma once

/// \file training_engine.hpp
/// The shared master-side distributed-GD protocol (DESIGN.md §8).
///
/// Every execution substrate in this codebase runs the same master loop:
/// broadcast the optimizer's query point, collect scheme-encoded worker
/// messages in arrival order until the scheme's `Collector` is ready,
/// resolve coverage failures per `FailurePolicy`, apply the decoded mean
/// gradient through an `IterativeOptimizer`, and track loss against
/// elapsed time. `TrainingEngine` owns that loop once; what varies per
/// substrate — how messages actually move and what "elapsed time" means —
/// hides behind the small `IterationProvider` seam:
///
///   * the threaded provider (runtime/thread_cluster.hpp) ships real
///     messages over an in-process network from real worker threads and
///     reports wall-clock seconds;
///   * the simulated provider (engine/simulated_provider.hpp) replays the
///     allocation-free `IterationKernel`'s arrival order and ingress
///     timing while computing *real* gradients, yielding deterministic
///     loss-vs-simulated-seconds curves at simulator speed.
///
/// Determinism: the engine itself is deterministic — every float it
/// touches comes from decode_sum / the optimizer in a fixed order. A run
/// is therefore exactly as reproducible as its provider's arrival
/// sequence (fully seed-determined for the simulated provider; for the
/// threaded one, schemes whose decode is arrival-order independent —
/// all workers of a batch/block send bitwise-identical messages, or the
/// collector slots per worker — still reproduce bit-for-bit).

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/gradient_source.hpp"
#include "core/scheme.hpp"
#include "engine/types.hpp"
#include "opt/optimizer.hpp"
#include "opt/trainer.hpp"
#include "stats/summary.hpp"

namespace coupon::engine {

/// One worker message as the master observes it. The spans alias
/// provider-owned storage and stay valid until the next
/// `next_arrival` / `begin_iteration` call.
struct ArrivalView {
  std::size_t worker = 0;
  std::span<const std::int64_t> meta;
  std::span<const double> payload;
};

/// What one iteration cost in time. `compute_seconds` is the max worker
/// compute among consumed messages where the substrate can separate
/// phases (simulated provider); 0 where it cannot (threaded provider —
/// wall-clock phases are not separable there).
struct IterationTiming {
  double total_seconds = 0.0;
  double compute_seconds = 0.0;
};

/// The transport/time substrate under the engine. One instance serves
/// one training run; calls arrive strictly as
/// begin_iteration (next_arrival)* end_iteration, once per iteration.
class IterationProvider {
 public:
  virtual ~IterationProvider() = default;

  /// Starts iteration `iteration` at query point `w`: broadcast it to
  /// the workers (threaded) or draw the iteration's arrival schedule and
  /// remember `w` for lazy encoding (simulated). `w` stays valid until
  /// `end_iteration`.
  virtual void begin_iteration(std::size_t iteration,
                               std::span<const double> w) = 0;

  /// Produces the next master-side arrival, or returns false when no
  /// more messages will arrive this iteration (all n workers accounted
  /// for). The engine stops calling as soon as its collector is ready.
  virtual bool next_arrival(ArrivalView& out) = 0;

  /// Ends the iteration after the engine stops consuming arrivals
  /// (recovery or exhaustion) and returns its timing.
  virtual IterationTiming end_iteration() = 0;
};

/// Master-side options of one training run.
struct TrainOptions {
  std::size_t iterations = 10;
  FailurePolicy on_failure = FailurePolicy::kSkipUpdate;
  /// When set, evaluated on the current iterate after every iteration;
  /// enables final_loss / time_to_target / loss_history below.
  std::function<double(std::span<const double>)> loss_fn;
  /// Record one LossPoint per iteration (requires loss_fn).
  bool record_loss_history = false;
  /// When set (requires loss_fn), `time_to_target` captures the elapsed
  /// seconds at the end of the first iteration whose loss <= target.
  std::optional<double> target_loss;
  /// Stop the run right after the target is reached instead of running
  /// all iterations (requires target_loss).
  bool stop_at_target = false;
  /// The scheme's decode_sum is a stochastic estimate (SGC): count every
  /// applied update in TrainReport::approximate_iterations so downstream
  /// records can flag how much of the trajectory rode on noisy gradients.
  bool approximate_recovery = false;
};

/// Result of a training run. `elapsed_seconds` is wall-clock for the
/// threaded provider and simulated seconds for the simulated one.
struct TrainReport {
  std::vector<double> weights;        ///< final model w_T
  stats::OnlineStats workers_heard;   ///< per-iteration K samples
  stats::OnlineStats units_received;  ///< per-iteration L samples
  double elapsed_seconds = 0.0;
  /// Summed per-iteration phase split, meaningful only for providers
  /// that separate phases (simulated). The threaded provider reports
  /// compute = 0 per iteration, which leaves comm == elapsed here —
  /// check compute_seconds > 0 before rendering the split.
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;  ///< elapsed - compute
  std::size_t iterations_run = 0;      ///< < options.iterations on early stop
  std::size_t failed_iterations = 0;   ///< coverage failures (update skipped)
  std::size_t partial_iterations = 0;  ///< updates applied from partial sums
  /// Updates applied from a stochastic decode (options.approximate_recovery
  /// schemes): full and partial applied updates both count.
  std::size_t approximate_iterations = 0;
  std::optional<double> final_loss;     ///< loss_fn on the final iterate
  std::optional<double> time_to_target; ///< seconds to reach target_loss
  std::vector<LossPoint> loss_history;  ///< when record_loss_history
};

/// Stepwise form of the master-side training protocol: construct, call
/// `step()` until `done()`, then `take_report()`. Each `step()` runs
/// exactly one iteration of the loop `TrainingEngine::train` runs — the
/// same statements in the same order, so the trajectory is bitwise
/// identical. The stepwise seam exists so callers can observe
/// per-iteration steady state (the allocation tests) and per-iteration
/// wall time.
///
/// All referenced objects (scheme, source, provider, optimizer, options)
/// must outlive the loop.
class TrainLoop {
 public:
  TrainLoop(const core::Scheme& scheme, const core::UnitGradientSource& source,
            IterationProvider& provider, opt::IterativeOptimizer& optimizer,
            const TrainOptions& options);

  /// Runs one iteration. Precondition: !done().
  void step();

  /// True once all iterations ran or stop_at_target fired.
  bool done() const { return done_; }

  /// Finalizes the report (final weights + final_loss) and returns it.
  /// Call once, after done().
  TrainReport take_report();

 private:
  const core::Scheme& scheme_;
  const core::UnitGradientSource& source_;
  IterationProvider& provider_;
  opt::IterativeOptimizer& optimizer_;
  const TrainOptions& options_;
  std::unique_ptr<core::Collector> collector_;  ///< reset() per iteration
  std::vector<double> grad_;  ///< per-iteration decoded gradient, size p
  TrainReport report_;
  std::size_t t_ = 0;
  bool done_ = false;
};

/// The master-side iteration protocol, bound to one scheme, one gradient
/// source, and one provider. Single-use-at-a-time: call `train` from one
/// thread.
class TrainingEngine {
 public:
  /// `scheme`, `source`, and `provider` must outlive the engine;
  /// `source.num_units()` must equal `scheme.num_units()`.
  TrainingEngine(const core::Scheme& scheme,
                 const core::UnitGradientSource& source,
                 IterationProvider& provider);

  /// Runs synchronous distributed GD for `options.iterations` iterations
  /// (fewer on stop_at_target), driving `optimizer` master-side.
  TrainReport train(opt::IterativeOptimizer& optimizer,
                    const TrainOptions& options);

 private:
  const core::Scheme& scheme_;
  const core::UnitGradientSource& source_;
  IterationProvider& provider_;
};

/// The serial ground-truth gradient oracle the distributed paths are
/// checked against: sums the unit gradients in unit order 0..m-1 and
/// divides by num_examples — the exact floating-point operation order of
/// a one-unit-per-worker uncoded distributed run, so the comparison is
/// bitwise, not approximate.
opt::GradientOracle reference_oracle(const core::UnitGradientSource& source);

}  // namespace coupon::engine
