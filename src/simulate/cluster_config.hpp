#pragma once

/// \file cluster_config.hpp
/// Latency parameters of the simulated cluster (`ClusterConfig`), split
/// out of cluster_sim.hpp so scenario/driver layers that only *describe*
/// clusters need not rebuild when the simulation engine changes.

#include <cstddef>
#include <memory>
#include <vector>

#include "simulate/latency_model.hpp"

namespace coupon::simulate {

/// Latency parameters of the simulated cluster.
struct ClusterConfig {
  /// Seconds of deterministic compute per unit of load (a in Eq. 15).
  double compute_shift = 1e-3;
  /// Straggle parameter (mu in Eq. 15); the exponential tail of a
  /// worker's compute time has scale load/mu.
  double compute_straggle = 1.0;
  /// Master ingress service seconds per gradient unit received.
  double unit_transfer_seconds = 3e-3;
  /// Fixed model-broadcast latency at the start of each iteration.
  double broadcast_seconds = 0.0;
  /// Probability that a worker's message is lost this iteration (worker
  /// crash / packet drop). Independent across workers and iterations.
  /// Wait-for-all schemes fail the iteration on any loss; BCC/FR only
  /// fail when every replica of some batch/block is lost.
  double drop_probability = 0.0;
  /// Optional per-worker latency profiles (heterogeneous cluster). When
  /// non-empty, must have exactly one entry per worker and overrides the
  /// homogeneous compute_shift/compute_straggle above.
  std::vector<WorkerLatency> worker_overrides;
  /// Optional compute-latency law. When set, each run builds a fresh
  /// model from this factory and the shift/straggle/override fields above
  /// are ignored; when empty (the default) the simulator uses
  /// `ShiftedExpModel` built from those fields — the paper's Eq. 15,
  /// bit-identical to the pre-refactor behaviour.
  LatencyModelFactory latency_model;
};

/// The EC2 calibration of the paper's two scenarios (Section III-C), and
/// the cluster of the driver's "shifted_exp" scenario: per-unit compute
/// and master-ingress times in the regime the paper reports for t2.micro
/// instances, where communication dominates computation by an order of
/// magnitude. bench/ablation_master_bw sweeps the ingress time: the
/// BCC < CR < uncoded ranking holds from half of it up.
inline ClusterConfig ec2_cluster() {
  ClusterConfig c;
  c.compute_shift = 1.0e-3;          // 1 ms deterministic compute per unit
  c.compute_straggle = 950.0;        // tail scale load/mu ~ 10.5 ms at r=10
  c.unit_transfer_seconds = 3.2e-3;  // 3.2 ms to receive one gradient
  c.broadcast_seconds = 0.0;
  return c;
}

/// Validates the cluster knobs for an `num_workers`-worker simulation:
/// compute_shift/broadcast_seconds/unit_transfer_seconds >= 0,
/// compute_straggle > 0, drop_probability in [0, 1], and worker_overrides
/// empty or exactly one valid entry per worker. Throws
/// coupon::AssertionError with the offending knob and value instead of
/// letting a bad config silently produce NaN or degenerate traces.
/// Called by `make_latency_model`, so every run validates on entry.
void validate_cluster_config(const ClusterConfig& config,
                             std::size_t num_workers);

/// Builds the run's latency model: `config.latency_model(num_workers)`
/// when set, otherwise the default `ShiftedExpModel` over the config's
/// shift/straggle/override fields.
std::unique_ptr<LatencyModel> make_latency_model(const ClusterConfig& config,
                                                 std::size_t num_workers);

}  // namespace coupon::simulate
