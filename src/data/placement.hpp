#pragma once

/// \file placement.hpp
/// Data placement: which examples each worker stores and processes.
///
/// This is the bipartite graph G of Section II — data vertices on one
/// side, worker vertices on the other, with an edge (d_j, k_i) when
/// worker i computes the partial gradient g_j. Definition 1's
/// computational load r is the maximum worker degree.
///
/// Layout: each distinct unit set is stored once, and each worker holds
/// an index into those sets. BCC's workers share its ceil(m/r) batches
/// and FR's share its n/r blocks, so a million-worker BCC placement is
/// ceil(m/r) sets plus n indices rather than n copies of a batch
/// (DESIGN.md §7.6). Schemes whose workers hold different sets pass one
/// set per worker.

#include <cstddef>
#include <vector>

namespace coupon::data {

/// Per-worker example assignment (the sets G_i of the paper).
class Placement {
 public:
  /// Worker i holds `sets[set_of_worker[i]]`. A set no worker indexes is
  /// allowed (a BCC batch nobody drew) and counts for nothing. Asserts
  /// that every index is below `sets.size()`.
  Placement(std::size_t num_examples,
            std::vector<std::vector<std::size_t>> sets,
            std::vector<std::size_t> set_of_worker);

  /// One set per worker: worker i holds `per_worker[i]`.
  Placement(std::size_t num_examples,
            std::vector<std::vector<std::size_t>> per_worker);

  std::size_t num_workers() const { return set_of_worker_.size(); }
  std::size_t num_examples() const { return num_examples_; }

  /// G_i. Workers with the same set index return the same object.
  const std::vector<std::size_t>& worker(std::size_t i) const {
    return sets_[set_of_worker(i)];
  }

  /// Index of worker i's set (BCC's batch, FR's block).
  std::size_t set_of_worker(std::size_t i) const {
    return set_of_worker_[i];
  }

  /// The distinct sets, held by workers or not.
  std::size_t num_sets() const { return sets_.size(); }
  const std::vector<std::size_t>& set(std::size_t s) const {
    return sets_[s];
  }

  /// Definition 1: the computational load r = max_i |G_i|.
  std::size_t computational_load() const;

  /// Total stored examples Σ_i |G_i| (the redundancy factor is this / m).
  std::size_t total_assigned() const;

  /// True when every example is assigned to at least one worker
  /// (the paper's requirement N(k_1) ∪ ... ∪ N(k_n) = {d_1, ..., d_m}).
  bool covers_all_examples() const;

  /// Number of workers processing each example (data-vertex degrees).
  std::vector<std::size_t> example_multiplicities() const;

 private:
  std::size_t num_examples_ = 0;
  std::vector<std::vector<std::size_t>> sets_;
  std::vector<std::size_t> set_of_worker_;
};

}  // namespace coupon::data
