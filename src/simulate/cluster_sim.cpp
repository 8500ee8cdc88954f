#include "simulate/cluster_sim.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace coupon::simulate {

void validate_cluster_config(const ClusterConfig& config,
                             std::size_t num_workers) {
  COUPON_ASSERT_MSG(config.compute_shift >= 0.0,
                    "compute_shift must be >= 0, got "
                        << config.compute_shift);
  COUPON_ASSERT_MSG(config.compute_straggle > 0.0,
                    "compute_straggle must be > 0, got "
                        << config.compute_straggle);
  COUPON_ASSERT_MSG(config.unit_transfer_seconds >= 0.0,
                    "unit_transfer_seconds must be >= 0, got "
                        << config.unit_transfer_seconds);
  COUPON_ASSERT_MSG(config.broadcast_seconds >= 0.0,
                    "broadcast_seconds must be >= 0, got "
                        << config.broadcast_seconds);
  COUPON_ASSERT_MSG(
      config.drop_probability >= 0.0 && config.drop_probability <= 1.0,
      "drop_probability must be in [0, 1], got " << config.drop_probability);
  COUPON_ASSERT_MSG(config.worker_overrides.empty() ||
                        config.worker_overrides.size() == num_workers,
                    "worker_overrides must be empty or size n");
  for (std::size_t i = 0; i < config.worker_overrides.size(); ++i) {
    const auto& o = config.worker_overrides[i];
    COUPON_ASSERT_MSG(o.compute_shift >= 0.0 && o.compute_straggle > 0.0,
                      "worker_overrides[" << i << "]: shift="
                                          << o.compute_shift << " straggle="
                                          << o.compute_straggle);
  }
}

std::unique_ptr<LatencyModel> make_latency_model(const ClusterConfig& config,
                                                 std::size_t num_workers) {
  validate_cluster_config(config, num_workers);
  if (config.latency_model) {
    auto model = config.latency_model(num_workers);
    COUPON_ASSERT_MSG(model != nullptr,
                      "ClusterConfig::latency_model returned null");
    return model;
  }
  return std::make_unique<ShiftedExpModel>(config.compute_shift,
                                           config.compute_straggle,
                                           config.worker_overrides);
}

namespace {

using Arrival = IterationKernel::Arrival;

/// The DES heap executed compute completions in (time, scheduling-seq)
/// order, and completions were scheduled in worker order, so
/// (time, worker) reproduces it exactly. Keys are unique — at most one
/// arrival per worker — which makes every sorted prefix a deterministic
/// function of the draw, whether produced by a full sort or by
/// selection (DESIGN.md §7.4).
inline bool arrival_less(const Arrival& a, const Arrival& b) {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  return a.worker < b.worker;
}

/// Draw phase — one drop Bernoulli then (for loaded workers) one model
/// sample per worker, in worker order: the exact RNG consumption order
/// of the historical event loop's scheduling pass. Fills `out` (size n)
/// front-to-first and returns the number of arrivals; `model` is
/// advanced (`begin_iteration`) before any draw.
std::size_t draw_arrivals_into(std::span<Arrival> out,
                               std::span<const double> loads,
                               const ClusterConfig& config, LatencyModel& model,
                               std::size_t iteration, stats::Rng& rng) {
  model.begin_iteration(iteration, rng);
  const std::size_t n = loads.size();
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (config.drop_probability > 0.0 &&
        rng.bernoulli(config.drop_probability)) {
      continue;  // message lost: this worker never reports
    }
    double compute = 0.0;
    if (loads[i] > 0.0) {
      compute = model.sample_compute_seconds({i, iteration, loads[i]}, rng);
      COUPON_ASSERT_MSG(compute >= 0.0 && std::isfinite(compute),
                        "latency model '" << model.name() << "' drew "
                                          << compute << " for worker " << i);
    }
    out[count].time = config.broadcast_seconds + compute;
    out[count].compute = compute;
    out[count].worker = i;
    ++count;
  }
  return count;
}

/// The initial sorted-prefix length: the scheme's provable arrival floor
/// (`min_arrivals_hint`), raised to the expected recovery threshold when
/// one is known — starting below E[K] would make geometric extension the
/// common case instead of the fallback. Wait-for-all schemes (and
/// threshold_selection = false) land on n, i.e. a plain full sort.
std::size_t start_prefix_for(const core::Scheme& scheme,
                             bool threshold_selection) {
  const std::size_t n = scheme.num_workers();
  if (!threshold_selection || n == 0) {
    return n;
  }
  std::size_t start = std::clamp<std::size_t>(scheme.min_arrivals_hint(), 1, n);
  const std::optional<double> expected = scheme.expected_recovery_threshold();
  if (expected && *expected > static_cast<double>(start)) {
    start = std::min(n, static_cast<std::size_t>(std::ceil(*expected)));
  }
  return start;
}

}  // namespace

IterationKernel::IterationKernel(const core::Scheme& scheme,
                                 const ClusterConfig& config,
                                 KernelOptions options)
    : config_(config), collector_(scheme.make_collector()) {
  const std::size_t n = scheme.num_workers();
  loads_.resize(n);
  service_seconds_.resize(n);
  meta_offsets_.reserve(n + 1);
  meta_offsets_.push_back(0);
  meta_flat_.reserve(n);  // every in-tree scheme tags at least one entry
  for (std::size_t i = 0; i < n; ++i) {
    loads_[i] = static_cast<double>(scheme.placement().worker(i).size());
    service_seconds_[i] =
        scheme.message_units(i) * config.unit_transfer_seconds;
    const std::vector<std::int64_t> meta = scheme.message_meta(i);
    meta_flat_.insert(meta_flat_.end(), meta.begin(), meta.end());
    meta_offsets_.push_back(meta_flat_.size());
  }
  arrivals_.resize(n);
  start_prefix_ = start_prefix_for(scheme, options.threshold_selection);
}

std::size_t IterationKernel::begin_lazy_arrivals(LatencyModel& model,
                                                 std::size_t iteration,
                                                 stats::Rng& rng) {
  count_ =
      draw_arrivals_into(arrivals_, loads_, config_, model, iteration, rng);

  // Selection phase: materialize the first `start_prefix_` arrivals in
  // sorted order (`std::nth_element` partitions the prefix in O(count),
  // then a prefix sort orders it); because keys are unique, the result
  // is bit-identical to the same prefix of a full sort. std::sort (not
  // stable_sort, which allocates) is safe for the same reason.
  const auto first = arrivals_.begin();
  sorted_ = std::min(start_prefix_, count_);
  if (sorted_ >= count_) {
    std::sort(first, first + count_, arrival_less);
    sorted_ = count_;
  } else {
    std::nth_element(first, first + sorted_, first + count_, arrival_less);
    std::sort(first, first + sorted_, arrival_less);
  }
  return count_;
}

const IterationKernel::Arrival& IterationKernel::sorted_arrival(
    std::size_t k) {
  COUPON_ASSERT(k < count_);
  // Geometric extension whenever a consumer reads past the sorted prefix
  // (drops, BCC coverage failure, a conservative hint): [sorted_, count_)
  // holds exactly the arrivals ranked >= sorted_, so selecting inside it
  // extends the unique sorted order (DESIGN.md §7.4). sorted_ >= 1 here:
  // start_prefix_for never returns 0 for a non-empty draw.
  while (k >= sorted_) {
    const auto first = arrivals_.begin();
    const std::size_t next = std::min(count_, sorted_ * 2);
    if (next < count_) {
      std::nth_element(first + sorted_, first + next, first + count_,
                       arrival_less);
      std::sort(first + sorted_, first + next, arrival_less);
    } else {
      std::sort(first + sorted_, first + count_, arrival_less);
    }
    sorted_ = next;
  }
  return arrivals_[k];
}

IterationReport IterationKernel::run(LatencyModel& model,
                                     std::size_t iteration, stats::Rng& rng) {
  collector_->reset();
  const std::size_t count = begin_lazy_arrivals(model, iteration, rng);

  // Ingress phase: the FIFO link's completion order equals arrival order
  // (it frees monotonically), so one pass replaces the event heap. The
  // pass stops at recovery — exactly where the historical DES
  // run_until() stopped; without recovery the DES drained fully and its
  // clock ended on the last ingress completion (FifoIngress::total_time).
  FifoIngress ingress;
  IterationReport report;
  report.recovered = false;
  for (std::size_t k = 0; k < count && !report.recovered; ++k) {
    const Arrival& arrival = sorted_arrival(k);
    ingress.receive(arrival.time, arrival.compute,
                    service_seconds_[arrival.worker]);
    collector_->offer(arrival.worker, meta(arrival.worker), {});
    report.recovered = collector_->ready();
  }
  report.total_time = ingress.total_time();
  report.workers_heard = collector_->workers_heard();
  report.units_received = collector_->units_received();
  report.compute_time = ingress.max_compute();
  report.comm_time = report.total_time - report.compute_time;
  return report;
}

IterationReport simulate_iteration(const core::Scheme& scheme,
                                   const ClusterConfig& config,
                                   stats::Rng& rng) {
  const auto model = make_latency_model(config, scheme.num_workers());
  return simulate_iteration(scheme, config, *model, /*iteration=*/0, rng);
}

IterationReport simulate_iteration(const core::Scheme& scheme,
                                   const ClusterConfig& config,
                                   LatencyModel& model, std::size_t iteration,
                                   stats::Rng& rng) {
  IterationKernel kernel(scheme, config);
  return kernel.run(model, iteration, rng);
}

RunReport simulate_run(const core::Scheme& scheme,
                       const ClusterConfig& config, const RunOptions& options,
                       stats::Rng& rng) {
  const auto model = make_latency_model(config, scheme.num_workers());
  IterationKernel kernel(scheme, config);
  RunReport run;
  if (options.record_trace) {
    run.iterations.reserve(options.iterations);
  }
  for (std::size_t t = 0; t < options.iterations; ++t) {
    const IterationReport it = kernel.run(*model, t, rng);
    run.total_time += it.total_time;
    run.total_compute_time += it.compute_time;
    run.total_comm_time += it.comm_time;
    run.workers_heard.add(static_cast<double>(it.workers_heard));
    run.units_received.add(it.units_received);
    if (!it.recovered) {
      ++run.failures;
    }
    if (options.record_trace) {
      run.iterations.push_back(it);
    }
  }
  return run;
}

}  // namespace coupon::simulate
