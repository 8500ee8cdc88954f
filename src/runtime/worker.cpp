#include "runtime/worker.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace coupon::runtime {

std::vector<std::uint64_t> worker_seeds(std::uint64_t cluster_seed,
                                        std::size_t num_workers) {
  stats::Rng seeder(cluster_seed);
  std::vector<std::uint64_t> seeds(num_workers);
  for (auto& seed : seeds) {
    seed = seeder.next_u64();
  }
  return seeds;
}

WorkerExit serve_worker(comm::Transport& transport, const core::Scheme& scheme,
                        const core::UnitGradientSource& source,
                        std::size_t worker, const StragglerInjection& straggler,
                        std::uint64_t seed,
                        std::optional<std::size_t> stop_at) {
  stats::Rng rng(seed);
  const auto load =
      static_cast<double>(scheme.placement().worker(worker).size());
  // Hoisted reply buffer: encoding reuses its meta/payload capacity
  // across iterations (the move-send empties it, but the next assign
  // refills without growing past the first iteration's high-water mark).
  comm::Message reply;
  for (;;) {
    comm::RecvEvent event = transport.recv();
    if (event.status != comm::RecvStatus::kMessage ||
        event.message.tag == comm::kTagShutdown) {
      return WorkerExit::kShutdown;
    }
    if (event.message.tag != comm::kTagModelBroadcast) {
      return WorkerExit::kBadMessage;
    }
    if (stop_at &&
        event.message.iteration == static_cast<std::int64_t>(*stop_at)) {
      return WorkerExit::kStopped;
    }

    scheme.encode_into(worker, source, event.message.payload, reply);
    reply.tag = comm::kTagGradient;
    reply.dest = 0;
    reply.iteration = event.message.iteration;

    if (straggler.enabled && load > 0.0) {
      const auto dist = stats::ShiftedExponential::for_load(
          straggler.shift_ms_per_unit, straggler.straggle, load);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(dist.sample(rng)));
    }
    // A failed send means the master is gone; the next recv reports it.
    transport.send(std::move(reply));
  }
}

}  // namespace coupon::runtime
