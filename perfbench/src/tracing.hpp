#pragma once

/// \file tracing.hpp
/// Timing decorators for the traced run. Each wraps one public seam of the
/// library and forwards every virtual to the wrapped object unchanged, so a
/// decorated run computes bit-for-bit what the plain run computes; the
/// decorator only reads the clock and bumps counters in a `TraceSink`.
///
/// Seams: the `ClusterConfig::latency_model` factory (`traced_cluster`),
/// `core::Scheme` and its `core::Collector`, `core::UnitGradientSource`,
/// `opt::IterativeOptimizer`, `engine::IterationProvider`, and the loss
/// callback. Spans nest: gradient time inside an encode is subtracted from
/// the encode's self time, and encode/gradient time inside a provider's
/// `next_arrival` is subtracted from the provider's own time there.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "core/gradient_source.hpp"
#include "core/scheme.hpp"
#include "engine/training_engine.hpp"
#include "opt/optimizer.hpp"
#include "simulate/cluster_config.hpp"

namespace perfbench {

/// Cumulative span totals (seconds) and counters of one traced run, plus
/// the per-iteration stamps the simulation phases are cut at. Plain data,
/// so a process runtime's workers can keep theirs in a shared mapping.
struct TraceSink {
  // Latency model: stamps of the current iteration's first and last draw.
  double draw_begin = 0.0;
  double draw_last = 0.0;
  std::uint64_t draws = 0;
  // Collector.
  double first_offer = -1.0;  ///< stamp of this iteration's first offer
  double offer_s = 0.0;
  std::uint64_t offers = 0;
  std::uint64_t kept = 0;
  /// Sum of |G_i| over offered workers, counted only with `count_units`
  /// (training): the placement lookup per offer would dominate the
  /// traced simulation kernel at n = 10^6.
  std::uint64_t units_consumed = 0;
  bool count_units = false;
  double decode_s = 0.0;
  // Scheme encode (self time: gradient time inside it excluded).
  double encode_self_s = 0.0;
  double encode_total_s = 0.0;
  std::uint64_t encodes = 0;
  // Gradient source.
  double gradient_s = 0.0;
  std::uint64_t unit_gradients = 0;
  // Optimizer, provider, loss.
  double step_s = 0.0;
  double begin_s = 0.0;
  double next_self_s = 0.0;  ///< next_arrival minus encode and gradient
  double loss_s = 0.0;

  /// Clears the per-iteration stamps (call before each iteration).
  void start_iteration() {
    draw_begin = draw_last = 0.0;
    first_offer = -1.0;
  }
};

/// A copy of `base` whose latency-model factory wraps each model it builds
/// so every draw stamps `sink` (the model itself is `base`'s, or the
/// default shifted-exponential one).
coupon::simulate::ClusterConfig traced_cluster(
    const coupon::simulate::ClusterConfig& base, TraceSink& sink);

/// Decorates a scheme: every virtual forwards to `inner`; `encode_into`
/// and `encode` are timed, and `make_collector` returns a timed collector.
/// With `worker_sinks` set (a process runtime's shared mapping, one sink
/// per worker), encode and gradient time go to the worker's own sink.
class TracedScheme final : public coupon::core::Scheme {
 public:
  TracedScheme(const coupon::core::Scheme& inner, TraceSink& sink,
               TraceSink* worker_sinks = nullptr);

  std::string_view registry_name() const override;
  std::string_view name() const override;
  coupon::comm::Message encode(std::size_t worker,
                               const coupon::core::UnitGradientSource& source,
                               std::span<const double> w) const override;
  void encode_into(std::size_t worker,
                   const coupon::core::UnitGradientSource& source,
                   std::span<const double> w,
                   coupon::comm::Message& out) const override;
  std::optional<std::size_t> encode_group(std::size_t worker) const override;
  std::size_t num_encode_groups() const override;
  double message_units(std::size_t worker) const override;
  std::vector<std::int64_t> message_meta(std::size_t worker) const override;
  std::unique_ptr<coupon::core::Collector> make_collector() const override;
  std::optional<double> expected_recovery_threshold() const override;
  std::size_t min_arrivals_hint() const override;

 private:
  TraceSink& sink_for(std::size_t worker) const;
  /// Runs one encode `body`, booking its time (minus the gradient time
  /// nested in it) to the worker's sink.
  template <typename F>
  void timed_encode(std::size_t worker, F&& body) const;

  const coupon::core::Scheme& inner_;
  TraceSink& sink_;
  TraceSink* worker_sinks_;
};

/// Decorates a gradient source; all four computing virtuals are timed and
/// count the unit gradients they compute.
class TracedSource final : public coupon::core::UnitGradientSource {
 public:
  TracedSource(const coupon::core::UnitGradientSource& inner, TraceSink& sink)
      : inner_(inner), sink_(sink) {}

  std::size_t num_units() const override { return inner_.num_units(); }
  std::size_t dim() const override { return inner_.dim(); }
  std::size_t num_examples() const override { return inner_.num_examples(); }
  void unit_gradient(std::size_t unit, std::span<const double> w,
                     std::span<double> out) const override;
  void accumulate_unit_gradient(std::size_t unit, std::span<const double> w,
                                std::span<double> out) const override;
  void accumulate_units_gradient(std::span<const std::size_t> units,
                                 std::span<const double> w,
                                 std::span<double> out) const override;
  std::span<const double> unit_gradient_view(
      std::size_t unit, std::span<const double> w,
      std::span<double> scratch) const override;

 private:
  const coupon::core::UnitGradientSource& inner_;
  TraceSink& sink_;
};

/// Decorates an optimizer: with a sink, `apply_gradient` is timed. The
/// optional hooks run when the engine asks for the query point (the start
/// of an iteration) and after each step, outside the timed span; the
/// process workload stamps iteration boundaries with them, because the
/// optimizer is the only seam its master loop exposes.
class TracedOptimizer final : public coupon::opt::IterativeOptimizer {
 public:
  TracedOptimizer(coupon::opt::IterativeOptimizer& inner, TraceSink* sink,
                  std::function<void()> on_query = {},
                  std::function<void()> on_step = {})
      : inner_(inner),
        sink_(sink),
        on_query_(std::move(on_query)),
        on_step_(std::move(on_step)) {}

  std::span<const double> query_point() const override {
    if (on_query_) {
      on_query_();
    }
    return inner_.query_point();
  }
  void apply_gradient(std::span<const double> grad) override;
  std::span<const double> weights() const override { return inner_.weights(); }
  std::size_t iteration() const override { return inner_.iteration(); }

 private:
  coupon::opt::IterativeOptimizer& inner_;
  TraceSink* sink_;
  std::function<void()> on_query_;
  std::function<void()> on_step_;
};

/// Decorates an iteration provider: `begin_iteration` is timed whole;
/// `next_arrival` is timed with the encode and gradient time nested in
/// it subtracted.
class TracedProvider final : public coupon::engine::IterationProvider {
 public:
  TracedProvider(coupon::engine::IterationProvider& inner, TraceSink& sink)
      : inner_(inner), sink_(sink) {}

  void begin_iteration(std::size_t iteration,
                       std::span<const double> w) override;
  bool next_arrival(coupon::engine::ArrivalView& out) override;
  coupon::engine::IterationTiming end_iteration() override {
    return inner_.end_iteration();
  }

 private:
  coupon::engine::IterationProvider& inner_;
  TraceSink& sink_;
};

/// One `TraceSink` per worker in an anonymous shared mapping. Create it
/// before a process runtime forks, so the worker processes and the master
/// see the same pages; each worker writes only its own sink, and the
/// master reads them after the workers are reaped.
class SharedTraceSinks {
 public:
  explicit SharedTraceSinks(std::size_t n);
  ~SharedTraceSinks();
  SharedTraceSinks(const SharedTraceSinks&) = delete;
  SharedTraceSinks& operator=(const SharedTraceSinks&) = delete;

  TraceSink* data() { return sinks_; }
  /// Sum of the encode and gradient spans and counters over all workers.
  TraceSink total() const;

 private:
  std::size_t n_;
  TraceSink* sinks_ = nullptr;
};

/// Wraps a loss callback so each evaluation is timed.
std::function<double(std::span<const double>)> traced_loss(
    std::function<double(std::span<const double>)> inner, TraceSink& sink);

}  // namespace perfbench
