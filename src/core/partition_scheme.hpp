#pragma once

/// \file partition_scheme.hpp
/// The partition family: uncoded, fractional repetition and the paper's
/// Batched Coupon's Collector (Sec. III).
///
/// All three split the m units into disjoint sets and give every worker
/// one of them. A worker ships the sum of its set's partial gradients
/// tagged with the set index (Eq. 12); the master keeps the first message
/// per set and is ready once every set is covered. They differ only in
/// which set each worker holds:
///   * uncoded (Sec. III-C): one contiguous set per worker, floor(m/n) or
///     ceil(m/n) units each, so the master waits for all — K = n;
///   * fractional repetition (Tandon et al., 1612.03301; the paper's
///     footnote 2): m = n units in n/r blocks of r, worker i holds block
///     i mod (n/r), so each block has r replicas — any r - 1 stragglers
///     are tolerated and the master often finishes far earlier;
///   * BCC: B = ceil(m/r) batches of r units (the last may be short), and
///     every worker independently draws one uniformly at random — the
///     coupon-collector process with K_BCC = B H_B (Eq. 2, Theorem 1).
/// So FR is BCC with a fixed draw, and uncoded is one batch per worker.

#include <string>

#include "core/scheme.hpp"

namespace coupon::core {

/// A scheme whose placement's sets partition the units; every worker
/// holds one set.
class PartitionScheme final : public Scheme {
 public:
  /// `placement`'s sets must partition the units; worker i holds set
  /// `placement.set_of_worker(i)`. `expected_threshold` is E[K] where a
  /// closed form exists.
  PartitionScheme(std::string registry_name, std::string name,
                  data::Placement placement,
                  std::optional<double> expected_threshold);

  std::string_view registry_name() const override { return registry_name_; }
  std::string_view name() const override { return name_; }

  comm::Message encode(std::size_t worker, const UnitGradientSource& source,
                       std::span<const double> w) const override;
  void encode_into(std::size_t worker, const UnitGradientSource& source,
                   std::span<const double> w,
                   comm::Message& out) const override;
  double message_units(std::size_t) const override { return 1.0; }
  std::vector<std::int64_t> message_meta(std::size_t worker) const override;
  std::unique_ptr<Collector> make_collector() const override;

  /// Workers holding the same set send bitwise-identical messages: same
  /// meta {set}, and the same payload because both sum the set's units
  /// in its ascending order. Offered only when some set is shared.
  std::optional<std::size_t> encode_group(std::size_t worker) const override;
  std::size_t num_encode_groups() const override {
    return shares_sets() ? num_sets() : 0;
  }

  std::optional<double> expected_recovery_threshold() const override {
    return expected_threshold_;
  }

  /// Coverage needs at least one message per set.
  std::size_t min_arrivals_hint() const override { return num_sets(); }

  /// Number of sets: uncoded's n, FR's n/r blocks, BCC's ceil(m/r)
  /// batches.
  std::size_t num_sets() const { return placement_.num_sets(); }

 private:
  bool shares_sets() const { return num_sets() < num_workers(); }
  std::size_t set_of(std::size_t worker) const;

  std::string registry_name_;
  std::string name_;
  std::optional<double> expected_threshold_;
};

/// Uncoded: the units split contiguously and evenly, worker i holding
/// set i. Requires m >= n >= 1 so every worker has work.
std::unique_ptr<PartitionScheme> make_uncoded(std::size_t num_workers,
                                              std::size_t num_units);

/// Fractional repetition over m = n units: n/r blocks of r consecutive
/// units, worker i holding block i mod (n/r). Requires 1 <= r <= n and
/// r | n.
std::unique_ptr<PartitionScheme> make_fractional_repetition(
    std::size_t num_workers, std::size_t load);

/// BCC: ceil(m/r) batches {b r, ..., min(b r + r, m) - 1}, each worker
/// drawing its batch as `rng.uniform_int(B)` in worker order. If
/// `seed_first_batches` is set (library extension, off per the paper),
/// workers 0..B-1 take batches 0..B-1 instead of drawing, guaranteeing
/// coverage at the cost of those placements no longer being i.i.d.
/// Requires n >= ceil(m/r).
std::unique_ptr<PartitionScheme> make_bcc(std::size_t num_workers,
                                          std::size_t num_units,
                                          std::size_t load,
                                          bool seed_first_batches,
                                          stats::Rng& rng);

}  // namespace coupon::core
