#pragma once

/// \file cluster_sim.hpp
/// Model of one master + n workers running synchronous distributed GD —
/// the EC2-testbed substitute (see DESIGN.md §2).
///
/// Per iteration:
///   1. The master broadcasts the model; every worker starts computing
///      after `broadcast_seconds`.
///   2. Worker i's compute time is drawn from the cluster's pluggable
///      `LatencyModel` (latency_model.hpp). The default reproduces the
///      paper: shift-exponential in the load (Eq. 15 applied per unit),
///      shift = compute_shift * load_units, rate = compute_straggle /
///      load_units, redrawn each iteration — stragglers move around, as
///      in a real cluster. Other models give heavy tails, bursty or
///      Markov-persistent stragglers, or replayed traces.
///   3. Finished workers ship their encoded message to the master. The
///      master's ingress link is a serialized FIFO resource: receiving a
///      message occupies it for message_units * unit_transfer_seconds.
///      This is what makes the communication phase proportional to the
///      number of messages the master must sit through — exactly the
///      effect behind Tables I/II, where total time tracks the recovery
///      threshold K.
///   4. Each fully received message is offered to the scheme's Collector;
///      the iteration completes when the collector is ready.
///
/// Per-iteration accounting mirrors the paper's: computation time is the
/// maximum compute duration among workers whose messages were received
/// before the iteration ended; communication time is the remainder.
///
/// Execution: iterations run on the allocation-free `IterationKernel`, a
/// typed sort-based engine that draws compute times in the historical
/// event-loop RNG order and resolves the serialized FIFO ingress by an
/// arrival-sorted scan — provably trace-equivalent to the old
/// discrete-event loop (equivalence argument in DESIGN.md §7, pinned
/// byte-for-byte by tests/golden/sweep_2x2.jsonl) but with zero
/// steady-state heap allocations per iteration.
///
/// Large-n scaling (n = 10^5..10^6, ROADMAP's million-worker regime):
/// recovery needs only the earliest K arrivals (K ≈ n - r + 1 for the
/// threshold schemes, ~(m/r) H_{m/r} for the coverage schemes), so the
/// kernel sorts just the scheme's `min_arrivals_hint()` prefix up front
/// (`std::nth_element` + prefix sort) and extends the sorted prefix
/// geometrically when drops or coverage failure push recovery past it —
/// bit-identical to the full sort because arrival keys (time, worker)
/// are unique (DESIGN.md §7.4).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/scheme.hpp"
#include "simulate/cluster_config.hpp"
#include "simulate/iteration_report.hpp"
#include "simulate/latency_model.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace coupon::simulate {

/// Aggregates over a multi-iteration run.
struct RunReport {
  /// Per-iteration reports — populated only when the run was executed
  /// with `RunOptions::record_trace`.
  std::vector<IterationReport> iterations;
  double total_time = 0.0;
  double total_compute_time = 0.0;
  double total_comm_time = 0.0;
  stats::OnlineStats workers_heard;   ///< empirical K
  stats::OnlineStats units_received;  ///< empirical L
  std::size_t failures = 0;           ///< iterations without recovery
};

/// Options for `simulate_run`.
struct RunOptions {
  /// GD iterations to simulate.
  std::size_t iterations = 100;
  /// Opt-in per-iteration trace: when true, `RunReport::iterations` gets
  /// one `IterationReport` per iteration. Off by default — summary-only
  /// consumers (sweeps feeding summary CSV/JSONL sinks) should not pay
  /// for materializing traces they never render.
  bool record_trace = false;
};

/// Tuning knobs for `IterationKernel`.
struct KernelOptions {
  /// Sort only the scheme's minimum-arrivals prefix up front and extend
  /// it geometrically on demand (DESIGN.md §7.4) instead of fully
  /// sorting all n arrivals every iteration. Bit-identical either way —
  /// the off position exists as the reference the equivalence tests
  /// compare against, and as an escape hatch for profiling.
  bool threshold_selection = true;
};

/// The master's serialized FIFO ingress link over one iteration: each
/// received message waits for the link, then occupies it for its
/// service time. `IterationKernel::run` and the training engine's
/// `SimulatedProvider` both resolve their arrivals through this one
/// step, so the timing recurrence — and every float it produces — is
/// written once. Default-constructed = an idle link at time 0.
class FifoIngress {
 public:
  /// Receives a message reaching the link at `arrival_time` from a
  /// worker that computed for `compute` seconds:
  /// busy-until = max(arrival, busy-until) + service.
  void receive(double arrival_time, double compute, double service) {
    busy_until_ = std::max(arrival_time, busy_until_) + service;
    max_compute_ = std::max(max_compute_, compute);
    any_received_ = true;
  }

  /// The iteration's completion time: the busy-until after the last
  /// received message, or 0 when nothing arrived (every message dropped).
  double total_time() const { return any_received_ ? busy_until_ : 0.0; }

  /// The max compute duration among received messages (the paper's
  /// computation time; communication is the remainder).
  double max_compute() const { return max_compute_; }

 private:
  double busy_until_ = 0.0;
  double max_compute_ = 0.0;
  bool any_received_ = false;
};

/// Allocation-free iteration engine for one (scheme, cluster) run
/// (DESIGN.md §7). Construction precomputes what the old event loop
/// recomputed per iteration — per-worker placement loads, message service
/// times (`message_units * unit_transfer_seconds`), message metadata in
/// one flat arena, and one reusable `Collector` — and each `run` call
/// then executes a full GD iteration with zero heap allocations in
/// steady state:
///
///   1. drops and compute times are drawn in the exact per-worker RNG
///      order of the historical event loop;
///   2. the earliest arrivals are materialized in (finish time, worker
///      index) order — identical to the DES heap's (time,
///      scheduling-seq) order, because compute completions were
///      scheduled in worker order. With threshold selection on, only
///      the scheme's recovery prefix is sorted up front
///      (`std::nth_element` + prefix sort from `min_arrivals_hint()` /
///      `expected_recovery_threshold()`), and the sorted prefix doubles
///      whenever the scan runs past it without recovery; unique keys
///      make every prefix bit-identical to the full sort's.
///   3. each arrival, in that order, passes the master's `FifoIngress`
///      and is offered to the collector, stopping at recovery — exactly
///      when the old loop's run_until stopped.
///
/// Phases 1–2 are `begin_lazy_arrivals` / `sorted_arrival`, which the
/// training engine's simulated provider drives itself; `run` is the
/// timing-only consumer of the same selection path.
///
/// The scheme and config must outlive the kernel; the config must already
/// have been validated (`make_latency_model` validates).
class IterationKernel {
 public:
  /// One master-side arrival: a worker's message reaching the ingress
  /// link. Served by `sorted_arrival` in completion order.
  struct Arrival {
    double time = 0.0;     ///< broadcast_seconds + compute
    double compute = 0.0;  ///< the model draw (0 for unloaded workers)
    std::size_t worker = 0;
  };

  IterationKernel(const core::Scheme& scheme, const ClusterConfig& config,
                  KernelOptions options = {});

  /// Simulates GD iteration `iteration`, drawing compute times from
  /// `model` (calls `model.begin_iteration` first) and all randomness
  /// from `rng`. Bit-identical to the historical DES event loop.
  IterationReport run(LatencyModel& model, std::size_t iteration,
                      stats::Rng& rng);

  /// Phases 1–2 for consumers that stop early (`run` and the simulated
  /// provider both stop at recovery, typically after a small prefix).
  /// Draws drops + compute times in the historical per-worker RNG order
  /// but sorts only the kernel's selection prefix up front;
  /// `sorted_arrival` then serves the k-th earliest arrival, extending
  /// the sorted prefix geometrically. Unique (time, worker) keys make
  /// every served prefix bit-identical to the full sort's. Returns the
  /// number of arrivals this iteration.
  std::size_t begin_lazy_arrivals(LatencyModel& model, std::size_t iteration,
                                  stats::Rng& rng);

  /// The k-th earliest arrival of the current iteration. Requires
  /// `k < begin_lazy_arrivals(...)`; invalidated by the next
  /// begin_lazy_arrivals/run call.
  const Arrival& sorted_arrival(std::size_t k);

  /// Master-ingress occupancy of worker `i`'s message, in seconds
  /// (message_units(i) * unit_transfer_seconds, precomputed per run).
  double service_seconds(std::size_t worker) const {
    return service_seconds_[worker];
  }

  /// Worker `i`'s message metadata (scheme.message_meta(i), precomputed
  /// per run into one flat arena — at n = 10^6 per-worker vectors would
  /// mean a million pointer-chased allocations).
  std::span<const std::int64_t> meta(std::size_t worker) const {
    return {meta_flat_.data() + meta_offsets_[worker],
            meta_offsets_[worker + 1] - meta_offsets_[worker]};
  }

  /// The selection start prefix in use: how many earliest arrivals are
  /// sorted before the first one is served (n when threshold selection
  /// is off or the scheme is wait-for-all). Exposed for tests and
  /// diagnostics.
  std::size_t start_prefix() const { return start_prefix_; }

 private:
  const ClusterConfig& config_;
  std::unique_ptr<core::Collector> collector_;  ///< reset() per iteration
  std::vector<double> loads_;            ///< |G_i| per worker
  std::vector<double> service_seconds_;  ///< ingress occupancy per worker
  std::vector<std::int64_t> meta_flat_;    ///< all metadata, concatenated
  std::vector<std::size_t> meta_offsets_;  ///< n + 1 bounds into meta_flat_
  std::vector<Arrival> arrivals_;  ///< reused scratch arena, size n
  std::size_t count_ = 0;          ///< arrivals drawn this iteration
  std::size_t start_prefix_ = 0;   ///< initial sorted-prefix length
  std::size_t sorted_ = 0;         ///< sorted-prefix length this iteration
};

/// Simulates one iteration of distributed GD for `scheme` on a cluster
/// described by `config`. Uses the scheme's combinatorial interface only
/// (no gradients are computed). Builds a fresh latency model for the
/// single iteration; multi-iteration runs must use `simulate_run` (or the
/// model-threading overload below) so stateful models keep their state.
IterationReport simulate_iteration(const core::Scheme& scheme,
                                   const ClusterConfig& config,
                                   stats::Rng& rng);

/// As above, but samples compute times from the caller's `model` for GD
/// iteration `iteration` (calls `model.begin_iteration` first). One-shot
/// convenience over a throwaway `IterationKernel`; it assumes `config`
/// was already validated (use `make_latency_model`, which validates, to
/// obtain the model). Loops should hold their own kernel instead.
IterationReport simulate_iteration(const core::Scheme& scheme,
                                   const ClusterConfig& config,
                                   LatencyModel& model, std::size_t iteration,
                                   stats::Rng& rng);

/// Simulates `options.iterations` iterations against one latency-model
/// instance (independent draws for memoryless models; correlated across
/// iterations for Markov/trace models) and one reused `IterationKernel`
/// — the steady-state loop performs no heap allocations — then
/// aggregates. Records the per-iteration trace only when
/// `options.record_trace` is set.
RunReport simulate_run(const core::Scheme& scheme, const ClusterConfig& config,
                       const RunOptions& options, stats::Rng& rng);

}  // namespace coupon::simulate
