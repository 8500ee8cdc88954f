#pragma once

/// \file simulated_provider.hpp
/// Simulated-time `IterationProvider`: the paper's convergence
/// experiments at simulator speed (DESIGN.md §8, §12).
///
/// Couples the allocation-free `IterationKernel`'s arrival order and
/// master-ingress timing (simulate/cluster_sim.hpp) with *real*
/// gradients from a `UnitGradientSource`: each iteration the provider
/// draws the kernel's (drop, compute-time) schedule, then lazily encodes
/// a worker's true message only when the engine actually consumes that
/// arrival. Arrivals come from the kernel's lazy selection path
/// (`begin_lazy_arrivals` / `sorted_arrival`) and pass the kernel's
/// `simulate::FifoIngress` — the same two steps `IterationKernel::run`
/// takes — so each message waits for the serialized master link,
/// occupies it for its service time, and the iteration ends at the
/// recovery (or drain) completion.
///
/// The encode path is allocation-free in steady state and avoids
/// recomputing work within an iteration twice:
///
///   * unit gradients flow through a `CachedGradientSource`, so two
///     workers sharing a unit compute its gradient once per iteration
///     (bitwise transparent — see cached_gradient_source.hpp);
///   * schemes whose same-group workers send bitwise-identical messages
///     (BCC batches, FR blocks — `Scheme::encode_group`) are encoded
///     once per group per iteration and replayed from a group slot;
///   * everything else reuses one persistent message buffer through
///     `Scheme::encode_into`.
///
/// `ProviderOptions::cache_encode = false` restores the literal legacy
/// `scheme.encode` path (fresh message per arrival, no caches); the
/// equivalence tests drive both and require identical training
/// trajectories.
///
/// Timing is bit-identical to a timing-only `simulate_run` of the same
/// (scheme, cluster, seed) — the RNG draw order is the kernel's — while
/// the weights evolve exactly as the threaded runtime's would under the
/// same arrival order. A seed fully determines the
/// loss-vs-simulated-seconds curve.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comm/message.hpp"
#include "core/cached_gradient_source.hpp"
#include "core/gradient_source.hpp"
#include "core/scheme.hpp"
#include "engine/training_engine.hpp"
#include "simulate/cluster_sim.hpp"
#include "stats/rng.hpp"

namespace coupon::engine {

/// Knobs for SimulatedProvider construction.
struct ProviderOptions {
  /// Use the cached encode path (gradient memoization + group message
  /// reuse + encode_into). Off = the legacy fresh-encode-per-arrival
  /// path, kept for A/B equivalence testing.
  bool cache_encode = true;
};

/// Drives training over simulated time. One instance serves one run; the
/// scheme, source, and rng must outlive it.
class SimulatedProvider final : public IterationProvider {
 public:
  /// Validates `cluster` (via make_latency_model) and builds the run's
  /// latency-model instance, so stateful models (Markov, trace replay)
  /// keep their cross-iteration state for the whole run. The provider
  /// owns its copy of the config; scheme/source/rng are referenced and
  /// must outlive the provider.
  SimulatedProvider(const core::Scheme& scheme,
                    const core::UnitGradientSource& source,
                    simulate::ClusterConfig cluster, stats::Rng& rng,
                    ProviderOptions options = {});

  /// The kernel references `cluster_`, so a copied or moved provider
  /// would leave its kernel pointing into the source object.
  SimulatedProvider(const SimulatedProvider&) = delete;
  SimulatedProvider& operator=(const SimulatedProvider&) = delete;

  void begin_iteration(std::size_t iteration,
                       std::span<const double> w) override;
  bool next_arrival(ArrivalView& out) override;
  IterationTiming end_iteration() override;

 private:
  const core::Scheme& scheme_;
  const core::UnitGradientSource& source_;
  const simulate::ClusterConfig cluster_;  ///< referenced by kernel_
  stats::Rng& rng_;
  ProviderOptions options_;
  core::CachedGradientSource cache_;  ///< memoizes unit gradients over source_
  std::unique_ptr<simulate::LatencyModel> model_;
  simulate::IterationKernel kernel_;

  // Per-iteration state.
  std::span<const double> w_;  ///< query point, valid through the iteration
  std::size_t arrival_count_ = 0;  ///< arrivals drawn this iteration
  std::size_t cursor_ = 0;        ///< next arrival to hand out
  simulate::FifoIngress ingress_;  ///< the master link over consumed arrivals
  comm::Message message_;  ///< reused encode buffer (view storage)
  /// Group message cache: one slot per scheme encode group, valid flags
  /// cleared each begin_iteration. Empty for schemes without groups.
  std::vector<comm::Message> group_msgs_;
  std::vector<std::uint8_t> group_valid_;
};

}  // namespace coupon::engine
