#pragma once

/// \file bcc.hpp
/// The paper's primary contribution: Batched Coupon's Collector (Sec. III).
///
/// Placement: the m units are partitioned into B = ceil(m/r) batches of r
/// units; every worker *independently* picks one batch uniformly at random
/// (decentralized, coordination-free). Encoding (Eq. 12): the worker sums
/// the partial gradients of its batch into a single gradient-sized
/// message tagged with the batch index. Collection: the master keeps the
/// first message per distinct batch and is ready when all B batches are
/// covered — the coupon-collector process, giving the expected recovery
/// threshold K_BCC = B * H_B of Theorem 1.

#include "core/scheme.hpp"

namespace coupon::core {

/// Batched Coupon's Collector scheme.
class BccScheme final : public Scheme {
 public:
  /// Draws every worker's batch choice from `rng`. If
  /// `seed_first_batches` is set (library extension, off per the paper),
  /// workers 0..B-1 deterministically take batches 0..B-1 and only the
  /// remaining workers sample randomly, guaranteeing per-iteration
  /// coverage at the cost of the first B workers' placement no longer
  /// being i.i.d.
  BccScheme(std::size_t num_workers, std::size_t num_units, std::size_t load,
            bool seed_first_batches, stats::Rng& rng);

  std::string_view registry_name() const override { return "bcc"; }
  std::string_view name() const override { return "BCC"; }

  comm::Message encode(std::size_t worker, const UnitGradientSource& source,
                       std::span<const double> w) const override;
  void encode_into(std::size_t worker, const UnitGradientSource& source,
                   std::span<const double> w,
                   comm::Message& out) const override;
  double message_units(std::size_t) const override { return 1.0; }
  std::vector<std::int64_t> message_meta(std::size_t worker) const override;
  std::unique_ptr<Collector> make_collector() const override;

  /// All workers that chose the same batch send bitwise-identical
  /// messages: same meta {batch}, and the same payload because both sum
  /// the batch's units in the partition's ascending order.
  std::optional<std::size_t> encode_group(std::size_t worker) const override {
    return batch_of_worker(worker);
  }
  std::size_t num_encode_groups() const override { return num_batches(); }

  /// Eq. (2): ceil(m/r) * H_{ceil(m/r)}.
  std::optional<double> expected_recovery_threshold() const override;

  /// Coverage needs at least one message per batch: B = ceil(m/r).
  std::size_t min_arrivals_hint() const override { return num_batches(); }

  /// Number of batches B = ceil(m/r): the placement's sets.
  std::size_t num_batches() const { return placement_.num_sets(); }

  /// The batch chosen by `worker` (sigma_i in the paper): its set index
  /// in the placement, which stores each batch once.
  std::size_t batch_of_worker(std::size_t worker) const;

  /// Probability that the n workers' random choices miss at least one
  /// batch (coverage failure; union bound is tight for small B):
  /// exactly computed by inclusion-exclusion.
  static double coverage_failure_probability(std::size_t num_workers,
                                             std::size_t num_batches);
};

}  // namespace coupon::core
