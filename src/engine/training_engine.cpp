#include "engine/training_engine.hpp"

#include <utility>

#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::engine {

TrainLoop::TrainLoop(const core::Scheme& scheme,
                     const core::UnitGradientSource& source,
                     IterationProvider& provider,
                     opt::IterativeOptimizer& optimizer,
                     const TrainOptions& options)
    : scheme_(scheme),
      source_(source),
      provider_(provider),
      optimizer_(optimizer),
      options_(options),
      collector_(scheme.make_collector()),
      grad_(source.dim()) {
  COUPON_ASSERT(source.num_units() == scheme.num_units());
  COUPON_ASSERT(optimizer.weights().size() == source.dim());
  COUPON_ASSERT_MSG(!options.record_loss_history || options.loss_fn,
                    "record_loss_history requires a loss_fn");
  COUPON_ASSERT_MSG(!options.target_loss || options.loss_fn,
                    "target_loss requires a loss_fn");
  if (options.record_loss_history) {
    report_.loss_history.reserve(options.iterations);
  }
  done_ = options.iterations == 0;
}

void TrainLoop::step() {
  COUPON_ASSERT(!done_);
  const std::size_t t = t_;
  collector_->reset();
  provider_.begin_iteration(t, optimizer_.query_point());

  ArrivalView arrival;
  while (!collector_->ready() && provider_.next_arrival(arrival)) {
    collector_->offer(arrival.worker, arrival.meta, arrival.payload);
  }
  const IterationTiming timing = provider_.end_iteration();
  report_.elapsed_seconds += timing.total_seconds;
  report_.compute_seconds += timing.compute_seconds;
  report_.comm_seconds += timing.total_seconds - timing.compute_seconds;
  ++report_.iterations_run;

  report_.workers_heard.add(
      static_cast<double>(collector_->workers_heard()));
  report_.units_received.add(collector_->units_received());

  bool applied = false;
  if (collector_->ready()) {
    collector_->decode_sum(grad_);
    linalg::scal(1.0 / static_cast<double>(source_.num_examples()), grad_);
    optimizer_.apply_gradient(grad_);
    applied = true;
  } else if (options_.on_failure == FailurePolicy::kApplyPartial &&
             collector_->supports_partial_decode()) {
    const std::size_t covered = collector_->decode_partial_sum(grad_);
    if (covered > 0) {
      // Mean-gradient estimate: the partial sum spans `covered` of
      // num_units units, i.e. about num_examples * covered/num_units
      // underlying examples.
      const double covered_examples =
          static_cast<double>(source_.num_examples()) *
          static_cast<double>(covered) /
          static_cast<double>(source_.num_units());
      linalg::scal(1.0 / covered_examples, grad_);
      optimizer_.apply_gradient(grad_);
      ++report_.partial_iterations;
      applied = true;
    }
  }
  if (!applied && !collector_->ready()) {
    ++report_.failed_iterations;
  }
  if (applied && options_.approximate_recovery) {
    ++report_.approximate_iterations;
  }

  // Per-iteration loss evaluation costs a full-dataset pass — do it
  // only when a consumer asked for the curve or the target crossing;
  // final_loss alone is computed once, after the loop.
  if (options_.loss_fn &&
      (options_.record_loss_history || options_.target_loss)) {
    const double loss = options_.loss_fn(optimizer_.weights());
    if (options_.record_loss_history) {
      report_.loss_history.push_back({report_.elapsed_seconds, loss});
    }
    if (options_.target_loss && !report_.time_to_target &&
        loss <= *options_.target_loss) {
      report_.time_to_target = report_.elapsed_seconds;
      if (options_.stop_at_target) {
        done_ = true;
      }
    }
  }

  ++t_;
  if (t_ >= options_.iterations) {
    done_ = true;
  }
}

TrainReport TrainLoop::take_report() {
  COUPON_ASSERT(done_);
  auto w = optimizer_.weights();
  report_.weights.assign(w.begin(), w.end());
  if (options_.loss_fn) {
    report_.final_loss = options_.loss_fn(report_.weights);
  }
  return std::move(report_);
}

TrainingEngine::TrainingEngine(const core::Scheme& scheme,
                               const core::UnitGradientSource& source,
                               IterationProvider& provider)
    : scheme_(scheme), source_(source), provider_(provider) {
  COUPON_ASSERT(source.num_units() == scheme.num_units());
}

TrainReport TrainingEngine::train(opt::IterativeOptimizer& optimizer,
                                  const TrainOptions& options) {
  TrainLoop loop(scheme_, source_, provider_, optimizer, options);
  while (!loop.done()) {
    loop.step();
  }
  return loop.take_report();
}

opt::GradientOracle reference_oracle(const core::UnitGradientSource& source) {
  return [&source](std::span<const double> w, std::span<double> grad) {
    linalg::fill(grad, 0.0);
    for (std::size_t unit = 0; unit < source.num_units(); ++unit) {
      source.accumulate_unit_gradient(unit, w, grad);
    }
    linalg::scal(1.0 / static_cast<double>(source.num_examples()), grad);
  };
}

}  // namespace coupon::engine
