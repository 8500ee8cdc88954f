// Pins the DESIGN.md §7.4 threshold-selection contract: the selection
// kernel (nth_element + sorted-prefix extension, seeded from
// Scheme::min_arrivals_hint) is *bit-identical* to the full-sort
// reference across every scheme, drop rate, and latency-model family —
// not statistically close, the same IterationReport bytes. The off
// position of KernelOptions::threshold_selection exists precisely to be
// this reference.
//
// Also pinned here:
//   * the min_arrivals_hint conformance contract — the hint must be a
//     provable lower bound on offers-to-ready under ANY arrival order,
//     or selection would sort too little and change results;
//   * the heavy-drop edge where fewer arrivals survive than the start
//     prefix wants (the full-sort fallback branch).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "simulate/simulate.hpp"
#include "stats/rng.hpp"

namespace coupon::simulate {
namespace {

constexpr const char* kAllSchemes[] = {"uncoded", "fr",  "cr",
                                       "bcc",     "simple_random",
                                       "gc_cyclic", "sgc", "gc_nested"};

ClusterConfig selection_cluster(double drop_probability) {
  ClusterConfig c;
  c.compute_shift = 1e-3;
  c.compute_straggle = 50.0;
  c.unit_transfer_seconds = 2e-3;
  c.broadcast_seconds = 1e-4;
  c.drop_probability = drop_probability;
  return c;
}

struct ModelKind {
  const char* name;
  LatencyModelFactory factory;  // empty = default shifted-exp
};

std::vector<ModelKind> model_kinds() {
  std::vector<ModelKind> kinds;
  kinds.push_back({"shifted_exp", {}});
  kinds.push_back({"pareto", [](std::size_t) {
                     return std::make_unique<ParetoModel>(1e-3, 1.5);
                   }});
  kinds.push_back({"markov", [](std::size_t n) {
                     return std::make_unique<MarkovStragglerModel>(
                         n, 1e-3, 50.0, 5.0, 0.1, 0.3);
                   }});
  return kinds;
}

std::unique_ptr<core::Scheme> build_scheme(const char* name,
                                           std::uint64_t seed) {
  core::SchemeConfig config;
  config.num_workers = 48;
  config.num_units = 48;
  config.load = 4;
  stats::Rng build_rng(seed);
  return core::SchemeRegistry::instance().create(name, config, build_rng);
}

void expect_reports_equal(const IterationReport& sel,
                          const IterationReport& ref,
                          const std::string& label) {
  EXPECT_EQ(sel.total_time, ref.total_time) << label;
  EXPECT_EQ(sel.compute_time, ref.compute_time) << label;
  EXPECT_EQ(sel.comm_time, ref.comm_time) << label;
  EXPECT_EQ(sel.workers_heard, ref.workers_heard) << label;
  EXPECT_EQ(sel.units_received, ref.units_received) << label;
  EXPECT_EQ(sel.recovered, ref.recovered) << label;
}

/// Runs `iterations` iterations through a selection kernel and a
/// full-sort reference kernel fed identical RNG streams and fresh
/// identically-parameterized models, requiring exact equality per
/// iteration. Returns how many iterations failed to recover (so callers
/// can assert an edge path was actually exercised).
std::size_t expect_selection_equivalent(const core::Scheme& scheme,
                                        const ClusterConfig& cluster,
                                        std::size_t iterations,
                                        const std::string& label) {
  IterationKernel selected(scheme, cluster);
  IterationKernel reference(scheme, cluster,
                            KernelOptions{.threshold_selection = false});
  EXPECT_EQ(reference.start_prefix(), scheme.num_workers()) << label;
  const auto model_a = make_latency_model(cluster, scheme.num_workers());
  const auto model_b = make_latency_model(cluster, scheme.num_workers());
  stats::Rng rng_a(0xD15EA5E);
  stats::Rng rng_b(0xD15EA5E);
  std::size_t failures = 0;
  for (std::size_t t = 0; t < iterations; ++t) {
    const IterationReport sel = selected.run(*model_a, t, rng_a);
    const IterationReport ref = reference.run(*model_b, t, rng_b);
    expect_reports_equal(sel, ref, label + " iteration " + std::to_string(t));
    failures += ref.recovered ? 0 : 1;
  }
  return failures;
}

TEST(ThresholdSelection, BitIdenticalAcrossSchemesDropsAndModels) {
  for (const char* name : kAllSchemes) {
    const auto scheme = build_scheme(name, 0x5E1EC7);
    for (double drop : {0.0, 0.05, 0.4}) {
      for (const ModelKind& kind : model_kinds()) {
        ClusterConfig cluster = selection_cluster(drop);
        cluster.latency_model = kind.factory;
        expect_selection_equivalent(
            *scheme, cluster, /*iterations=*/200,
            std::string(name) + " drop=" + std::to_string(drop) + " " +
                kind.name);
      }
    }
  }
}

TEST(ThresholdSelection, SelectionIsActuallyEngagedWhereItCanBe) {
  // Guard against the trivial pass where start_prefix silently equals n
  // everywhere (the equivalence test would still hold, vacuously). The
  // threshold/coverage schemes must start below n; wait-for-all must not.
  const ClusterConfig cluster = selection_cluster(0.0);
  for (const char* name : {"cr", "bcc", "fr", "simple_random", "gc_cyclic",
                           "sgc", "gc_nested"}) {
    const auto scheme = build_scheme(name, 0xB1A5ED);
    IterationKernel kernel(*scheme, cluster);
    EXPECT_LT(kernel.start_prefix(), scheme->num_workers()) << name;
    EXPECT_GE(kernel.start_prefix(), scheme->min_arrivals_hint()) << name;
  }
  const auto uncoded = build_scheme("uncoded", 0xB1A5ED);
  EXPECT_EQ(IterationKernel(*uncoded, cluster).start_prefix(),
            uncoded->num_workers());
}

TEST(ThresholdSelection, MinArrivalsHintLowerBoundsOffersToReady) {
  // The selection kernel is only correct if no collector can become
  // ready before min_arrivals_hint() offers — under ANY arrival order,
  // since latency models reorder workers arbitrarily. Random
  // permutations probe that contract for every scheme.
  stats::Rng perm_rng(0xC0FFEE);
  for (const char* name : kAllSchemes) {
    const auto scheme = build_scheme(name, 0x0FFE6);
    const std::size_t hint = scheme->min_arrivals_hint();
    ASSERT_GE(hint, 1u) << name;
    ASSERT_LE(hint, scheme->num_workers()) << name;
    std::vector<std::size_t> order(scheme->num_workers());
    std::iota(order.begin(), order.end(), 0);
    const auto collector = scheme->make_collector();
    for (int trial = 0; trial < 50; ++trial) {
      perm_rng.shuffle(order);
      collector->reset();
      std::size_t offers = 0;
      for (std::size_t worker : order) {
        if (collector->ready()) {
          break;
        }
        collector->offer(worker, scheme->message_meta(worker), {});
        ++offers;
      }
      // A randomized placement may legitimately fail coverage even after
      // all n offers (BCC/simple_random); the bound claim is about
      // recoveries only — and offers == n >= hint holds there anyway.
      EXPECT_GE(offers, hint) << name << " trial " << trial;
    }
  }
}

TEST(ThresholdSelection, HeavyDropsFallBackToFullSortBitIdentically) {
  // At 95% drops almost every iteration has fewer surviving arrivals
  // than the start prefix wants — the scan must take the sort-everything
  // branch and report the failure exactly as the reference does.
  const auto scheme = build_scheme("bcc", 0xD20B);
  const std::size_t failures = expect_selection_equivalent(
      *scheme, selection_cluster(0.95), /*iterations=*/300, "bcc drop=0.95");
  EXPECT_GT(failures, 250u);  // the edge path is actually the common path
}

}  // namespace
}  // namespace coupon::simulate
