#include "runtime/transport_provider.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace coupon::runtime {

TransportProvider::TransportProvider(comm::Transport& master,
                                     std::size_t num_workers,
                                     Options options)
    : master_(master),
      num_workers_(num_workers),
      options_(std::move(options)),
      alive_(num_workers, 1),
      expected_(num_workers, 0),
      replied_(num_workers, 0) {
  COUPON_ASSERT(master.rank() == 0);
  COUPON_ASSERT(master.num_ranks() == num_workers + 1);
}

void TransportProvider::begin_iteration(std::size_t iteration,
                                        std::span<const double> w) {
  iteration_ = static_cast<std::int64_t>(iteration);
  std::fill(expected_.begin(), expected_.end(), 0);
  std::fill(replied_.begin(), replied_.end(), 0);
  outstanding_ = 0;
  for (std::size_t i = 0; i < num_workers_; ++i) {
    if (alive_[i] == 0 || !options_.elasticity.active(i, iteration)) {
      continue;  // dead or in a planned absence window: no broadcast
    }
    comm::Message broadcast;
    broadcast.dest = static_cast<std::int32_t>(i + 1);
    broadcast.tag = comm::kTagModelBroadcast;
    broadcast.iteration = iteration_;
    broadcast.payload.assign(w.begin(), w.end());
    if (!master_.send(std::move(broadcast))) {
      // The pipe broke before the reader noticed the EOF: same death.
      alive_[i] = 0;
      ++workers_lost_;
      continue;
    }
    expected_[i] = 1;
    ++outstanding_;
  }
}

void TransportProvider::mark_dead(std::size_t worker) {
  COUPON_ASSERT(worker < num_workers_);
  if (alive_[worker] == 0) {
    return;  // already counted (a send failure, an EOF, a bad frame)
  }
  alive_[worker] = 0;
  ++workers_lost_;
  if (expected_[worker] != 0 && replied_[worker] == 0) {
    COUPON_ASSERT(outstanding_ > 0);
    --outstanding_;  // this reply will never come
  }
}

bool TransportProvider::next_arrival(engine::ArrivalView& out) {
  while (outstanding_ > 0) {
    comm::RecvEvent event =
        options_.worker_timeout.count() > 0
            ? master_.recv_for(options_.worker_timeout)
            : master_.recv();
    switch (event.status) {
      case comm::RecvStatus::kMessage: {
        // Index by the stream the frame arrived on: tag and source are
        // bytes the peer wrote. A frame no healthy worker sends — a
        // foreign tag, or another rank's name — ends the sender as a
        // body `deserialize` rejects does, and so do its later frames.
        const std::size_t worker = event.peer - 1;
        if (event.message.tag != comm::kTagGradient ||
            event.message.source != static_cast<std::int32_t>(event.peer)) {
          mark_dead(worker);
          continue;
        }
        // Drop a dead sender's frames, and stale replies from an
        // iteration the master left early.
        if (alive_[worker] == 0 || event.message.iteration != iteration_) {
          continue;
        }
        if (replied_[worker] != 0) {
          continue;  // duplicate (cannot happen on a healthy stream)
        }
        replied_[worker] = 1;
        if (expected_[worker] != 0) {
          --outstanding_;
        }
        message_ = std::move(event.message);
        out.worker = worker;
        out.meta = message_.meta;
        out.payload = message_.payload;
        return true;
      }
      case comm::RecvStatus::kPeerClosed:
        mark_dead(event.peer - 1);
        continue;
      case comm::RecvStatus::kTimeout:
        // No arrival for a full worker_timeout: abandon the iteration's
        // stragglers (their late replies will be skipped as stale) and
        // let the engine's FailurePolicy resolve the shortfall.
        ++timed_out_iterations_;
        return false;
      case comm::RecvStatus::kClosed:
        // Our own endpoint is gone — nothing more will ever arrive.
        return false;
    }
  }
  return false;
}

engine::IterationTiming TransportProvider::end_iteration() {
  // Wall-clock phases are not separable on a live cluster: report the
  // iteration total only (compute_seconds = 0 by convention). The delta
  // since the previous end_iteration keeps master-side work (decode,
  // optimizer step, loss evaluation) on the clock, exactly as the
  // threaded provider always measured it.
  const double now = timer_.seconds();
  const double total = now - last_mark_;
  last_mark_ = now;
  return {.total_seconds = total, .compute_seconds = 0.0};
}

}  // namespace coupon::runtime
