#pragma once

/// \file thread_cluster.hpp
/// Real-thread master/worker cluster executing distributed GD.
///
/// This is the MPI-substitute execution path (DESIGN.md §2): rank 0
/// (the calling thread) is the master, ranks 1..n are worker threads.
/// Each iteration every worker computes its scheme-encoded gradient
/// message on its locally "stored" data and ships it back, with optional
/// injected straggler delays standing in for t2.micro latency variance.
///
/// Both halves of the protocol are shared with the multi-process cluster
/// (runtime/process_cluster.hpp): the master side is the
/// `engine::TrainingEngine` driven through `TransportProvider`, the
/// worker side is `serve_worker` (runtime/worker.hpp), here both over
/// `InProcessTransport` endpoints of one in-process network. The
/// simulated provider (engine/simulated_provider.hpp) runs the identical
/// master protocol over simulated time.

#include <cstdint>

#include "core/gradient_source.hpp"
#include "core/scheme.hpp"
#include "engine/training_engine.hpp"
#include "opt/optimizer.hpp"
#include "runtime/elasticity.hpp"
#include "runtime/straggler.hpp"

namespace coupon::runtime {

using engine::FailurePolicy;

/// Training-run parameters of a live cluster: the engine's master-side
/// options (inherited verbatim — iterations, on_failure, loss tracking)
/// plus the worker-delay injection and join/leave schedule.
struct TrainOptions : engine::TrainOptions {
  StragglerInjection straggler;
  /// Planned worker absences: the master skips broadcasting to a worker
  /// in its leave window; the idle worker simply blocks on recv.
  ElasticityPlan elasticity;
};

/// A master plus `n` worker threads bound to one scheme and one dataset.
/// Threads are started per `train()` call and joined before it returns,
/// so the cluster holds nothing a running worker reads.
class ThreadCluster {
 public:
  /// `scheme` and `source` must remain valid for the cluster's lifetime.
  ThreadCluster(const core::Scheme& scheme,
                const core::UnitGradientSource& source,
                std::uint64_t straggler_seed = 42);

  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  /// Starts one worker thread per scheme worker and runs synchronous
  /// distributed GD for `options.iterations` iterations, driving
  /// `optimizer` (master-side). On a coverage failure (possible for BCC
  /// with small n) the iteration is resolved per `options.on_failure`.
  /// `TrainReport::elapsed_seconds` is wall-clock. Every worker is joined
  /// before returning, on exceptions too.
  engine::TrainReport train(opt::IterativeOptimizer& optimizer,
                            const TrainOptions& options);

 private:
  const core::Scheme& scheme_;
  const core::UnitGradientSource& source_;
  std::uint64_t straggler_seed_;
};

}  // namespace coupon::runtime
