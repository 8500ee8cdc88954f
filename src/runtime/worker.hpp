#pragma once

/// \file worker.hpp
/// The worker half of both live runtimes (DESIGN.md §9): one loop that
/// serves model broadcasts over any `comm::Transport` endpoint. The
/// threaded runtime runs it on a thread over an `InProcessTransport`, the
/// process runtime in a forked child over a `TcpTransport`, so worker
/// compute, reply framing and delay injection are written once.

#include <cstdint>
#include <optional>
#include <vector>

#include "comm/transport.hpp"
#include "core/gradient_source.hpp"
#include "core/scheme.hpp"
#include "runtime/straggler.hpp"

namespace coupon::runtime {

/// The per-worker delay-injection seeds of a cluster seeded with
/// `cluster_seed`. Both live clusters derive them here, so the injected
/// delays of a given (seed, worker) pair agree across the two runtimes.
std::vector<std::uint64_t> worker_seeds(std::uint64_t cluster_seed,
                                        std::size_t num_workers);

/// Why `serve_worker` returned.
enum class WorkerExit {
  kShutdown,    ///< a shutdown message, or the master's endpoint is gone
  kBadMessage,  ///< a message that is not a model broadcast
  kStopped,     ///< the broadcast of `stop_at` arrived; it got no reply
};

/// Serves broadcasts on `transport` (rank `worker` + 1) until the master
/// shuts it down or goes away. Each model broadcast is answered with the
/// scheme's encoded gradient message for `worker` at the broadcast model,
/// tagged with the broadcast's iteration and, when `straggler.enabled`,
/// sent after a shift-exponential sleep drawn from `seed`. With `stop_at`
/// set, the loop returns on that iteration's broadcast without replying,
/// which lets the caller turn it into a real crash.
WorkerExit serve_worker(comm::Transport& transport, const core::Scheme& scheme,
                        const core::UnitGradientSource& source,
                        std::size_t worker, const StragglerInjection& straggler,
                        std::uint64_t seed,
                        std::optional<std::size_t> stop_at = std::nullopt);

}  // namespace coupon::runtime
