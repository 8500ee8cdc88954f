#pragma once

/// \file transport_provider.hpp
/// Wall-clock `IterationProvider` over any `comm::Transport` endpoint —
/// the one master-side arrival loop shared by the threaded runtime
/// (InProcessTransport) and the multi-process runtime (TcpTransport), so
/// the broadcast/collect protocol is not duplicated per substrate
/// (DESIGN.md §9).
///
/// Robustness semantics:
///  - kPeerClosed (socket EOF — a worker process died or left) marks the
///    worker dead permanently: it is skipped by every later broadcast
///    and, if it owed this iteration a reply, the iteration's expected
///    count shrinks so the collector either recovers from the survivors
///    or falls through to the engine's FailurePolicy.
///  - kTimeout (deadline with no arrival at all, `worker_timeout` > 0)
///    abandons the iteration's outstanding replies without killing
///    anyone: the stragglers' eventual replies are skipped as stale.
///  - Stale replies (iteration != current) are consumed and dropped, as
///    the threaded provider always did.
///  - A frame with a foreign tag, or whose `source` is not the rank of
///    the stream it arrived on, marks that stream's worker dead as an
///    EOF would; a dead worker's later frames are dropped. The peer's
///    bytes never choose which worker a reply counts for.

#include <chrono>
#include <cstdint>
#include <vector>

#include "comm/transport.hpp"
#include "engine/training_engine.hpp"
#include "runtime/elasticity.hpp"
#include "util/timer.hpp"

namespace coupon::runtime {

/// The shared live-cluster provider. One instance serves one training
/// run; the transport must outlive it.
class TransportProvider final : public engine::IterationProvider {
 public:
  struct Options {
    /// Per-wait deadline before the master abandons an iteration's
    /// outstanding replies. 0 blocks forever — correct for in-process
    /// threads, which always reply; real processes set a positive
    /// backstop so a hung (not crashed — crashes are EOF) worker cannot
    /// wedge the run.
    std::chrono::milliseconds worker_timeout{0};
    ElasticityPlan elasticity;
  };

  TransportProvider(comm::Transport& master, std::size_t num_workers,
                    Options options);

  void begin_iteration(std::size_t iteration,
                       std::span<const double> w) override;
  bool next_arrival(engine::ArrivalView& out) override;
  engine::IterationTiming end_iteration() override;

  /// Workers observed dead (EOF) so far.
  std::size_t workers_lost() const { return workers_lost_; }

  /// Iterations abandoned by the worker_timeout backstop.
  std::size_t timed_out_iterations() const { return timed_out_iterations_; }

  bool worker_alive(std::size_t worker) const {
    return alive_[worker] != 0;
  }

 private:
  /// Handles an EOF or a hostile frame from `worker`: permanent death,
  /// adjusting this iteration's expectation if it still owed a reply.
  void mark_dead(std::size_t worker);

  comm::Transport& master_;
  std::size_t num_workers_;
  Options options_;
  std::vector<char> alive_;     ///< not yet observed dead
  std::vector<char> expected_;  ///< broadcast to, this iteration
  std::vector<char> replied_;   ///< reply consumed, this iteration
  std::int64_t iteration_ = 0;
  std::size_t outstanding_ = 0;  ///< expected and not yet replied
  std::size_t workers_lost_ = 0;
  std::size_t timed_out_iterations_ = 0;
  comm::Message message_;  ///< the last delivered reply (view storage)
  WallTimer timer_;        ///< started at construction (train start)
  double last_mark_ = 0.0;
};

}  // namespace coupon::runtime
