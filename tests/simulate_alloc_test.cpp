// Pins the DESIGN.md §7 allocation budget: once an `IterationKernel` is
// warm, the steady-state iteration loop performs ZERO heap allocations —
// for every built-in scheme, with drops enabled, and through the
// simulate_run aggregation path (traces off). Also pins the §7.6 build
// budget: a placement allocates once per distinct unit set, not once per
// worker.
//
// Mechanism: this binary replaces the global allocation functions with
// counting wrappers (legal per [replacement.functions]); the tests read
// the counter around a measured region. The replacement covers the plain,
// sized, nothrow, and aligned flavors so no call slips past the counter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/core.hpp"
#include "data/synthetic.hpp"
#include "engine/engine.hpp"
#include "opt/optimizer.hpp"
#include "opt/schedule.hpp"
#include "simulate/simulate.hpp"
#include "stats/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  ++g_allocations;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                // aligned_alloc requires size to be a multiple of align.
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace coupon::simulate {
namespace {

ClusterConfig alloc_test_cluster() {
  ClusterConfig c;
  c.compute_shift = 1e-3;
  c.compute_straggle = 100.0;
  c.unit_transfer_seconds = 2e-3;
  c.broadcast_seconds = 1e-4;
  return c;
}

/// Steady-state allocation count of `iterations` kernel runs after
/// `warmup` warm-up runs (warm-up lets reusable buffers — the arrival
/// scratch, the CR collector's kept-worker list — reach capacity).
std::size_t steady_state_allocations(const core::Scheme& scheme,
                                     const ClusterConfig& cluster,
                                     std::size_t warmup,
                                     std::size_t iterations) {
  const auto model = make_latency_model(cluster, scheme.num_workers());
  IterationKernel kernel(scheme, cluster);
  stats::Rng rng(0xA110C);
  double checksum = 0.0;
  for (std::size_t t = 0; t < warmup; ++t) {
    checksum += kernel.run(*model, t, rng).total_time;
  }
  const std::size_t before = g_allocations.load();
  for (std::size_t t = warmup; t < warmup + iterations; ++t) {
    checksum += kernel.run(*model, t, rng).total_time;
  }
  const std::size_t after = g_allocations.load();
  EXPECT_GE(checksum, 0.0);  // keep the loop observable
  return after - before;
}

TEST(AllocationFree, EverySchemeRunsIterationsWithoutAllocating) {
  core::SchemeConfig config;
  config.num_workers = 24;
  config.num_units = 24;
  config.load = 4;
  stats::Rng build_rng(7);
  for (const char* kind :
       {"uncoded", "bcc", "simple_random", "cr", "fr"}) {
    const auto scheme =
        core::SchemeRegistry::instance().create(kind, config, build_rng);
    EXPECT_EQ(steady_state_allocations(*scheme, alloc_test_cluster(),
                                       /*warmup=*/3, /*iterations=*/200),
              0u)
        << scheme->name();
  }
}

TEST(AllocationFree, DropsAndCoverageFailuresStayAllocationFree) {
  // Drops exercise the lost-message path; with n barely above B, BCC
  // iterations routinely drain without recovery — the failure path must
  // be as clean as the happy path.
  core::SchemeConfig config;
  config.num_workers = 8;
  config.num_units = 8;
  config.load = 2;
  stats::Rng build_rng(11);
  auto cluster = alloc_test_cluster();
  cluster.drop_probability = 0.3;
  const auto scheme = core::SchemeRegistry::instance().create("bcc", config,
                                        build_rng);
  EXPECT_EQ(steady_state_allocations(*scheme, cluster, /*warmup=*/3,
                                     /*iterations=*/300),
            0u);
}

TEST(AllocationFree, LargeNSelectionPathStaysAllocationFree) {
  // The million-worker regime's representative: n = 1e5 with threshold
  // selection engaged (start_prefix << n). nth_element, the prefix sort,
  // and the geometric extensions must all run inside the preallocated
  // arrival arena — any per-iteration allocation at this n is the
  // difference between the kernel scaling and not.
  core::SchemeConfig config;
  config.num_workers = 100'000;
  config.num_units = 100'000;
  config.load = 40;
  stats::Rng build_rng(17);
  const auto scheme =
      core::SchemeRegistry::instance().create("bcc", config, build_rng);
  {
    IterationKernel probe(*scheme, alloc_test_cluster());
    ASSERT_LT(probe.start_prefix(), scheme->num_workers());
  }
  EXPECT_EQ(steady_state_allocations(*scheme, alloc_test_cluster(),
                                     /*warmup=*/2, /*iterations=*/20),
            0u);
}

TEST(AllocationBudget, SharedUnitSetsAreAllocatedOncePerSet) {
  // BCC's workers share its ceil(m/r) batches and FR's share its n/r
  // blocks, so building either allocates once per distinct set plus a
  // constant, not once per worker (DESIGN.md §7.6).
  core::SchemeConfig config;
  config.num_workers = 100'000;
  config.num_units = 100'000;
  config.load = 40;
  const std::size_t distinct_sets = 2'500;  // m/r batches, n/r blocks
  for (const char* kind : {"bcc", "fr"}) {
    stats::Rng build_rng(19);
    const std::size_t before = g_allocations.load();
    const auto scheme =
        core::SchemeRegistry::instance().create(kind, config, build_rng);
    const std::size_t allocations = g_allocations.load() - before;
    EXPECT_EQ(scheme->num_workers(), config.num_workers);
    EXPECT_LT(allocations, distinct_sets + 64) << kind;
  }
}

TEST(AllocationFree, SimulateRunWithoutTraceOnlyAllocatesSetup) {
  // The full simulate_run path: model + kernel construction allocate, the
  // iteration loop must not. Bound the whole call by the cost of a
  // 1-iteration run — any per-iteration allocation would scale the count
  // with the iteration count and blow past the bound.
  core::SchemeConfig config;
  config.num_workers = 24;
  config.num_units = 24;
  config.load = 4;
  stats::Rng build_rng(13);
  const auto scheme =
      core::SchemeRegistry::instance().create("bcc", config, build_rng);

  auto count_run = [&](std::size_t iterations) {
    stats::Rng rng(99);
    RunOptions options;
    options.iterations = iterations;
    options.record_trace = false;
    const std::size_t before = g_allocations.load();
    const auto run =
        simulate_run(*scheme, alloc_test_cluster(), options, rng);
    const std::size_t after = g_allocations.load();
    EXPECT_EQ(run.workers_heard.count(), iterations);
    return after - before;
  };

  const std::size_t setup_cost = count_run(1);
  // 500x the iterations, identical allocation count: all setup, no
  // steady-state allocations. (The CR-style first-iteration capacity
  // growth is scheme-dependent; BCC's count is exactly flat.)
  EXPECT_EQ(count_run(500), setup_cost);
}

/// Steady-state allocation count of a real training run (DESIGN.md §12):
/// warm-up steps let the provider's encode buffers, the collector slots,
/// and the CR decode workspace reach capacity, then every subsequent
/// `TrainLoop::step` — encode, collect, decode, optimizer update — must
/// allocate nothing. Loss evaluation stays off: the budget covers the
/// training path itself.
std::size_t steady_state_train_allocations(const core::Scheme& scheme,
                                           const core::UnitGradientSource& source,
                                           const ClusterConfig& cluster,
                                           engine::FailurePolicy on_failure,
                                           std::size_t warmup,
                                           std::size_t iterations) {
  stats::Rng rng(0x7341A);
  engine::SimulatedProvider provider(scheme, source, cluster, rng);
  opt::GradientDescent optimizer(source.dim(),
                                 opt::LearningRateSchedule::constant(0.05));
  engine::TrainOptions options;
  options.iterations = warmup + iterations;
  options.on_failure = on_failure;
  engine::TrainLoop loop(scheme, source, provider, optimizer, options);
  for (std::size_t t = 0; t < warmup; ++t) {
    loop.step();
  }
  const std::size_t before = g_allocations.load();
  for (std::size_t t = 0; t < iterations; ++t) {
    loop.step();
  }
  const std::size_t after = g_allocations.load();
  EXPECT_TRUE(loop.done());
  return after - before;
}

TEST(AllocationFree, EverySchemeTrainsIterationsWithoutAllocating) {
  // The full training path for every registered scheme: real gradients
  // through the cached source, scheme encode via encode_into, collector
  // decode, GD update. n = m = 24, r = 4 satisfies every scheme's
  // structural constraints (m == n for the repetition/gc family, r | n
  // for FR and gc_nested).
  core::SchemeConfig config;
  config.num_workers = 24;
  config.num_units = 24;
  config.load = 4;
  data::SyntheticConfig dconf;
  dconf.num_features = 12;
  stats::Rng data_rng(0xDA7A);
  const data::SyntheticProblem problem =
      data::generate_linreg(config.num_units, dconf, /*noise_stddev=*/0.2,
                            data_rng);
  const core::LeastSquaresExampleSource source(problem.dataset);
  stats::Rng build_rng(7);
  for (const char* kind : {"uncoded", "bcc", "simple_random", "cr", "fr",
                           "gc_cyclic", "sgc", "gc_nested"}) {
    const auto scheme =
        core::SchemeRegistry::instance().create(kind, config, build_rng);
    EXPECT_EQ(steady_state_train_allocations(
                  *scheme, source, alloc_test_cluster(),
                  engine::FailurePolicy::kSkipUpdate,
                  /*warmup=*/3, /*iterations=*/100),
              0u)
        << scheme->name();
  }
}

TEST(AllocationFree, TrainingWithDropsAndPartialDecodeStaysAllocationFree) {
  // Message drops force coverage failures; kApplyPartial drives the
  // decode_partial_sum branch (and the skipped-update branch on empty
  // iterations). Both must match the happy path's zero budget.
  core::SchemeConfig config;
  config.num_workers = 8;
  config.num_units = 8;
  config.load = 2;
  data::SyntheticConfig dconf;
  dconf.num_features = 12;
  stats::Rng data_rng(0xD609);
  const data::SyntheticProblem problem =
      data::generate_linreg(config.num_units, dconf, /*noise_stddev=*/0.2,
                            data_rng);
  const core::LeastSquaresExampleSource source(problem.dataset);
  auto cluster = alloc_test_cluster();
  cluster.drop_probability = 0.3;
  stats::Rng build_rng(11);
  const auto scheme =
      core::SchemeRegistry::instance().create("bcc", config, build_rng);
  for (const auto policy : {engine::FailurePolicy::kSkipUpdate,
                            engine::FailurePolicy::kApplyPartial}) {
    EXPECT_EQ(steady_state_train_allocations(*scheme, source, cluster, policy,
                                             /*warmup=*/3, /*iterations=*/200),
              0u);
  }
}

}  // namespace
}  // namespace coupon::simulate
