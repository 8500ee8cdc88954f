#pragma once

/// \file process_cluster.hpp
/// Multi-process master/worker cluster over stream sockets (DESIGN.md §9).
///
/// The parameter-server-shaped sibling of ThreadCluster: `train()` forks
/// one OS process per scheme worker, each over a stream made before its
/// fork (loopback TCP, or an AF_UNIX socketpair where the sandbox forbids
/// TCP), and runs the shared `engine::TrainingEngine` protocol through
/// the shared `TransportProvider` over a `TcpTransport` endpoint; each
/// child runs the shared `serve_worker` loop (runtime/worker.hpp).
/// Workers inherit the scheme and dataset by fork — the master's memory
/// image is the "shared filesystem"; only models and gradients cross the
/// wire, as in the paper's MPI setup.
///
/// Crash tolerance is first-class: a worker death (SIGKILL included)
/// closes its socket, the master observes EOF mid-iteration, shrinks the
/// iteration's expectation, and the scheme's redundancy or the engine's
/// FailurePolicy resolves the shortfall — the run completes without that
/// worker. A hung-but-alive worker is bounded by `worker_timeout`.

#include <chrono>
#include <cstdint>
#include <optional>
#include <sys/types.h>
#include <vector>

#include "core/gradient_source.hpp"
#include "core/scheme.hpp"
#include "engine/training_engine.hpp"
#include "opt/optimizer.hpp"
#include "runtime/thread_cluster.hpp"  // TrainOptions

namespace coupon::runtime {

/// Deterministic fault injection: the named worker raises SIGKILL upon
/// receiving the broadcast of `iteration` — a real mid-iteration crash
/// (the master sees socket EOF while collecting), used by the recovery
/// tests and the smoke drill.
struct CrashPlan {
  std::size_t worker = 0;
  std::size_t iteration = 0;
};

/// Training-run parameters: the live-cluster options (master-side
/// protocol, delay injection, join/leave schedule) plus the process
/// runtime's hang backstop and crash drill.
struct ProcessTrainOptions : TrainOptions {
  /// Master-side wait deadline per arrival before the iteration's
  /// outstanding replies are abandoned (see TransportProvider::Options).
  std::chrono::milliseconds worker_timeout{10000};
  std::optional<CrashPlan> crash;
};

/// A training report plus the robustness counters only a live cluster
/// can produce.
struct ProcessTrainResult {
  engine::TrainReport report;
  std::size_t workers_lost = 0;
  std::size_t timed_out_iterations = 0;
};

/// A master plus `n` worker processes bound to one scheme and one
/// dataset. Processes are forked per `train()` call (options are known
/// then) and fully reaped before it returns.
class ProcessCluster {
 public:
  /// True when this platform/sandbox can fork workers and connect
  /// stream sockets (loopback TCP or AF_UNIX socketpair). Probed once;
  /// tests skip cleanly when false.
  static bool supported();

  /// `scheme` and `source` must remain valid for the cluster's lifetime;
  /// both are inherited by the forked workers.
  ProcessCluster(const core::Scheme& scheme,
                 const core::UnitGradientSource& source,
                 std::uint64_t straggler_seed = 42);

  ProcessCluster(const ProcessCluster&) = delete;
  ProcessCluster& operator=(const ProcessCluster&) = delete;

  /// Forks one worker process per scheme worker and runs synchronous
  /// distributed GD for `options.iterations` iterations. Throws
  /// std::runtime_error when `supported()` is false or the cluster
  /// cannot be wired up. All workers are reaped before returning.
  /// The workers allocate after fork(), which is safe only where no
  /// other thread can hold an allocator lock without a fork handler:
  /// under glibc's malloc any thread may call this, under ASan only a
  /// process's sole running thread (run_sweep runs process cells on
  /// its calling thread for this reason).
  ProcessTrainResult train(opt::IterativeOptimizer& optimizer,
                           const ProcessTrainOptions& options);

 private:
  const core::Scheme& scheme_;
  const core::UnitGradientSource& source_;
  std::uint64_t straggler_seed_;
};

}  // namespace coupon::runtime
