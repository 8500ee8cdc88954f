#include "engine/simulated_provider.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace coupon::engine {

SimulatedProvider::SimulatedProvider(const core::Scheme& scheme,
                                     const core::UnitGradientSource& source,
                                     simulate::ClusterConfig cluster,
                                     stats::Rng& rng, ProviderOptions options)
    : scheme_(scheme),
      source_(source),
      cluster_(std::move(cluster)),
      rng_(rng),
      options_(options),
      cache_(source),
      model_(simulate::make_latency_model(cluster_, scheme.num_workers())),
      kernel_(scheme, cluster_) {
  COUPON_ASSERT(source.num_units() == scheme.num_units());
  if (options_.cache_encode) {
    group_msgs_.resize(scheme.num_encode_groups());
    group_valid_.assign(scheme.num_encode_groups(), 0);
  }
}

void SimulatedProvider::begin_iteration(std::size_t iteration,
                                        std::span<const double> w) {
  w_ = w;
  // Lazy arrivals: the engine stops consuming at recovery, so only the
  // kernel's selection prefix is sorted up front (bit-identical order —
  // see IterationKernel::sorted_arrival).
  arrival_count_ = kernel_.begin_lazy_arrivals(*model_, iteration, rng_);
  cursor_ = 0;
  ingress_ = {};
  cache_.begin_iteration();
  std::fill(group_valid_.begin(), group_valid_.end(),
            static_cast<std::uint8_t>(0));
}

bool SimulatedProvider::next_arrival(ArrivalView& out) {
  if (cursor_ == arrival_count_) {
    return false;
  }
  const auto& arrival = kernel_.sorted_arrival(cursor_++);
  ingress_.receive(arrival.time, arrival.compute,
                   kernel_.service_seconds(arrival.worker));

  // The real worker computation, evaluated only for messages the master
  // actually sits through — exactly the work a physical cluster performs
  // before the collector becomes ready.
  out.worker = arrival.worker;
  if (!options_.cache_encode) {
    message_ = scheme_.encode(arrival.worker, source_, w_);
    out.meta = message_.meta;
    out.payload = message_.payload;
    return true;
  }
  if (const auto group = scheme_.encode_group(arrival.worker)) {
    // All workers of this group send bitwise-identical messages: encode
    // the first one this iteration into the group's persistent slot and
    // replay it for the rest.
    comm::Message& slot = group_msgs_[*group];
    if (!group_valid_[*group]) {
      scheme_.encode_into(arrival.worker, cache_, w_, slot);
      group_valid_[*group] = 1;
    }
    out.meta = slot.meta;
    out.payload = slot.payload;
    return true;
  }
  scheme_.encode_into(arrival.worker, cache_, w_, message_);
  out.meta = message_.meta;
  out.payload = message_.payload;
  return true;
}

IterationTiming SimulatedProvider::end_iteration() {
  // IterationKernel::run's accounting over the consumed arrivals.
  IterationTiming timing;
  timing.total_seconds = ingress_.total_time();
  timing.compute_seconds = ingress_.max_compute();
  return timing;
}

}  // namespace coupon::engine
