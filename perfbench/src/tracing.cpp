#include "tracing.hpp"

#include <sys/mman.h>

#include <new>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common.hpp"

namespace perfbench {

namespace core = coupon::core;
namespace simulate = coupon::simulate;

namespace {

/// Where the gradient source books its time: the sink of the encode that
/// is running on this thread (a worker's own sink in a process run), else
/// the source's own sink.
thread_local TraceSink* t_gradient_sink = nullptr;

class TracedModel final : public simulate::LatencyModel {
 public:
  TracedModel(std::unique_ptr<simulate::LatencyModel> inner, TraceSink& sink)
      : inner_(std::move(inner)), sink_(sink) {}

  std::string_view name() const override { return inner_->name(); }
  void begin_iteration(std::size_t iteration,
                       coupon::stats::Rng& rng) override {
    sink_.draw_begin = stamp();
    inner_->begin_iteration(iteration, rng);
    sink_.draw_last = stamp();
  }
  double sample_compute_seconds(const simulate::LatencyContext& ctx,
                                coupon::stats::Rng& rng) override {
    const double v = inner_->sample_compute_seconds(ctx, rng);
    sink_.draw_last = stamp();
    ++sink_.draws;
    return v;
  }
  simulate::LatencyLaw law() const override { return inner_->law(); }

 private:
  std::unique_ptr<simulate::LatencyModel> inner_;
  TraceSink& sink_;
};

class TracedCollector final : public core::Collector {
 public:
  TracedCollector(std::unique_ptr<core::Collector> inner,
                  const core::Scheme& scheme, TraceSink& sink)
      : inner_(std::move(inner)), scheme_(scheme), sink_(sink) {}

  bool offer(std::size_t worker, std::span<const std::int64_t> meta,
             std::span<const double> payload) override {
    const std::size_t heard = inner_->workers_heard();
    const double units = inner_->units_received();
    const double t0 = stamp();
    const bool kept = inner_->offer(worker, meta, payload);
    const double t1 = stamp();
    if (sink_.first_offer < 0.0) {
      sink_.first_offer = t0;
    }
    sink_.offer_s += t1 - t0;
    ++sink_.offers;
    sink_.kept += kept ? 1 : 0;
    if (sink_.count_units) {
      sink_.units_consumed += scheme_.placement().worker(worker).size();
    }
    // Mirror the inner collector's K/L accounting: message sizes are whole
    // gradient units, so the difference is exact.
    if (inner_->workers_heard() > heard) {
      note_offer(inner_->units_received() - units);
    }
    return kept;
  }
  bool ready() const override { return inner_->ready(); }
  void decode_sum(std::span<double> grad_sum) const override {
    const double t0 = stamp();
    inner_->decode_sum(grad_sum);
    sink_.decode_s += stamp() - t0;
  }
  bool supports_partial_decode() const override {
    return inner_->supports_partial_decode();
  }
  std::size_t decode_partial_sum(std::span<double> grad_sum) const override {
    const double t0 = stamp();
    const std::size_t covered = inner_->decode_partial_sum(grad_sum);
    sink_.decode_s += stamp() - t0;
    return covered;
  }

 protected:
  void do_reset() override { inner_->reset(); }

 private:
  std::unique_ptr<core::Collector> inner_;
  const core::Scheme& scheme_;
  TraceSink& sink_;
};

/// Times one gradient-source call into the active sink.
template <typename F>
void timed_gradient(TraceSink& own, std::uint64_t units, F&& body) {
  TraceSink& sink = t_gradient_sink != nullptr ? *t_gradient_sink : own;
  const double t0 = stamp();
  body();
  sink.gradient_s += stamp() - t0;
  sink.unit_gradients += units;
}

}  // namespace

simulate::ClusterConfig traced_cluster(const simulate::ClusterConfig& base,
                                       TraceSink& sink) {
  simulate::ClusterConfig traced = base;
  traced.latency_model = [base, &sink](std::size_t num_workers) {
    return std::make_unique<TracedModel>(
        simulate::make_latency_model(base, num_workers), sink);
  };
  return traced;
}

TracedScheme::TracedScheme(const core::Scheme& inner, TraceSink& sink,
                           TraceSink* worker_sinks)
    : core::Scheme(inner.placement()),
      inner_(inner),
      sink_(sink),
      worker_sinks_(worker_sinks) {}

TraceSink& TracedScheme::sink_for(std::size_t worker) const {
  return worker_sinks_ != nullptr ? worker_sinks_[worker] : sink_;
}

std::string_view TracedScheme::registry_name() const {
  return inner_.registry_name();
}
std::string_view TracedScheme::name() const { return inner_.name(); }

template <typename F>
void TracedScheme::timed_encode(std::size_t worker, F&& body) const {
  TraceSink& sink = sink_for(worker);
  TraceSink* const outer = t_gradient_sink;
  t_gradient_sink = &sink;
  const double gradient0 = sink.gradient_s;
  const double t0 = stamp();
  body();
  const double dt = stamp() - t0;
  t_gradient_sink = outer;
  sink.encode_total_s += dt;
  sink.encode_self_s += dt - (sink.gradient_s - gradient0);
  ++sink.encodes;
}

coupon::comm::Message TracedScheme::encode(
    std::size_t worker, const core::UnitGradientSource& source,
    std::span<const double> w) const {
  coupon::comm::Message out;
  timed_encode(worker, [&] { out = inner_.encode(worker, source, w); });
  return out;
}

void TracedScheme::encode_into(std::size_t worker,
                               const core::UnitGradientSource& source,
                               std::span<const double> w,
                               coupon::comm::Message& out) const {
  timed_encode(worker, [&] { inner_.encode_into(worker, source, w, out); });
}

std::optional<std::size_t> TracedScheme::encode_group(std::size_t worker) const {
  return inner_.encode_group(worker);
}
std::size_t TracedScheme::num_encode_groups() const {
  return inner_.num_encode_groups();
}
double TracedScheme::message_units(std::size_t worker) const {
  return inner_.message_units(worker);
}
std::vector<std::int64_t> TracedScheme::message_meta(std::size_t worker) const {
  return inner_.message_meta(worker);
}
std::unique_ptr<core::Collector> TracedScheme::make_collector() const {
  return std::make_unique<TracedCollector>(inner_.make_collector(), inner_,
                                           sink_);
}
std::optional<double> TracedScheme::expected_recovery_threshold() const {
  return inner_.expected_recovery_threshold();
}
std::size_t TracedScheme::min_arrivals_hint() const {
  return inner_.min_arrivals_hint();
}

void TracedSource::unit_gradient(std::size_t unit, std::span<const double> w,
                                 std::span<double> out) const {
  timed_gradient(sink_, 1, [&] { inner_.unit_gradient(unit, w, out); });
}

void TracedSource::accumulate_unit_gradient(std::size_t unit,
                                            std::span<const double> w,
                                            std::span<double> out) const {
  timed_gradient(sink_, 1,
                 [&] { inner_.accumulate_unit_gradient(unit, w, out); });
}

void TracedSource::accumulate_units_gradient(std::span<const std::size_t> units,
                                             std::span<const double> w,
                                             std::span<double> out) const {
  timed_gradient(sink_, units.size(),
                 [&] { inner_.accumulate_units_gradient(units, w, out); });
}

std::span<const double> TracedSource::unit_gradient_view(
    std::size_t unit, std::span<const double> w,
    std::span<double> scratch) const {
  std::span<const double> view;
  timed_gradient(sink_, 1,
                 [&] { view = inner_.unit_gradient_view(unit, w, scratch); });
  return view;
}

void TracedOptimizer::apply_gradient(std::span<const double> grad) {
  if (sink_ != nullptr) {
    const double t0 = stamp();
    inner_.apply_gradient(grad);
    sink_->step_s += stamp() - t0;
  } else {
    inner_.apply_gradient(grad);
  }
  if (on_step_) {
    on_step_();
  }
}

void TracedProvider::begin_iteration(std::size_t iteration,
                                     std::span<const double> w) {
  const double t0 = stamp();
  inner_.begin_iteration(iteration, w);
  sink_.begin_s += stamp() - t0;
}

bool TracedProvider::next_arrival(coupon::engine::ArrivalView& out) {
  const double encode0 = sink_.encode_total_s;
  const double t0 = stamp();
  const bool more = inner_.next_arrival(out);
  const double dt = stamp() - t0;
  sink_.next_self_s += dt - (sink_.encode_total_s - encode0);
  return more;
}

SharedTraceSinks::SharedTraceSinks(std::size_t n) : n_(n) {
  void* p = ::mmap(nullptr, n_ * sizeof(TraceSink), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw std::runtime_error("mmap of the shared worker counters failed");
  }
  sinks_ = static_cast<TraceSink*>(p);
  for (std::size_t i = 0; i < n_; ++i) {
    new (&sinks_[i]) TraceSink();
  }
}

SharedTraceSinks::~SharedTraceSinks() {
  ::munmap(sinks_, n_ * sizeof(TraceSink));
}

TraceSink SharedTraceSinks::total() const {
  TraceSink sum;
  for (std::size_t i = 0; i < n_; ++i) {
    sum.encode_self_s += sinks_[i].encode_self_s;
    sum.encode_total_s += sinks_[i].encode_total_s;
    sum.encodes += sinks_[i].encodes;
    sum.gradient_s += sinks_[i].gradient_s;
    sum.unit_gradients += sinks_[i].unit_gradients;
  }
  return sum;
}

std::function<double(std::span<const double>)> traced_loss(
    std::function<double(std::span<const double>)> inner, TraceSink& sink) {
  return [inner = std::move(inner), &sink](std::span<const double> w) {
    const double t0 = stamp();
    const double loss = inner(w);
    sink.loss_s += stamp() - t0;
    return loss;
  };
}

}  // namespace perfbench
