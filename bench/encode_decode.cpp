// Microbenchmarks for the coding overhead claim (Remark 3 / the
// "Simplicity" bullet): BCC's encode is a plain gradient sum and its
// decode a running sum, while CR's encode applies coding coefficients
// and its decode solves an n x (n-s) least-squares system per iteration.
// These benches quantify that gap as a function of n and r.

#include <benchmark/benchmark.h>

#include "core/core.hpp"
#include "data/synthetic.hpp"
#include "stats/rng.hpp"

namespace {

using namespace coupon;

struct Workload {
  data::SyntheticProblem problem;
  std::unique_ptr<core::PerExampleSource> source;
  std::vector<double> w;
};

Workload make_workload(std::size_t units, std::size_t features) {
  Workload wl;
  stats::Rng rng(17);
  data::SyntheticConfig config;
  config.num_features = features;
  wl.problem = data::generate_logreg(units, config, rng);
  wl.source = std::make_unique<core::PerExampleSource>(wl.problem.dataset);
  wl.w = std::vector<double>(features);
  for (auto& v : wl.w) {
    v = rng.normal();
  }
  return wl;
}

constexpr std::size_t kFeatures = 2000;

void BM_BccEncode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto r = static_cast<std::size_t>(state.range(1));
  const auto wl = make_workload(n, kFeatures);
  stats::Rng rng(3);
  const auto scheme = core::make_bcc(n, n, r, true, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->encode(0, *wl.source, wl.w));
  }
}
BENCHMARK(BM_BccEncode)->Args({50, 10})->Args({100, 10})->Args({100, 25});

void BM_CrEncode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto r = static_cast<std::size_t>(state.range(1));
  const auto wl = make_workload(n, kFeatures);
  stats::Rng rng(3);
  core::CyclicRepetitionScheme scheme(n, r, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.encode(0, *wl.source, wl.w));
  }
}
BENCHMARK(BM_CrEncode)->Args({50, 10})->Args({100, 10})->Args({100, 25});

/// Full collect+decode at the master, excluding the worker encodes
/// (messages are prepared outside the timed loop).
template <typename SchemeT>
void run_decode_benchmark(benchmark::State& state, const SchemeT& scheme,
                          const Workload& wl,
                          const std::vector<std::size_t>& order) {
  std::vector<comm::Message> messages;
  messages.reserve(order.size());
  for (std::size_t i : order) {
    messages.push_back(scheme.encode(i, *wl.source, wl.w));
  }
  std::vector<double> grad(kFeatures);
  for (auto _ : state) {
    auto collector = scheme.make_collector();
    for (std::size_t k = 0; k < order.size() && !collector->ready(); ++k) {
      collector->offer(order[k], messages[k].meta, messages[k].payload);
    }
    collector->decode_sum(grad);
    benchmark::DoNotOptimize(grad.data());
  }
}

void BM_BccCollectDecode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto r = static_cast<std::size_t>(state.range(1));
  const auto wl = make_workload(n, kFeatures);
  stats::Rng rng(5);
  const auto scheme = core::make_bcc(n, n, r, true, rng);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  rng.shuffle(order);
  run_decode_benchmark(state, *scheme, wl, order);
}
BENCHMARK(BM_BccCollectDecode)
    ->Args({50, 10})
    ->Args({100, 10})
    ->Args({100, 25});

void BM_CrCollectDecode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto r = static_cast<std::size_t>(state.range(1));
  const auto wl = make_workload(n, kFeatures);
  stats::Rng rng(5);
  core::CyclicRepetitionScheme scheme(n, r, rng);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  rng.shuffle(order);
  run_decode_benchmark(state, scheme, wl, order);
}
BENCHMARK(BM_CrCollectDecode)
    ->Args({50, 10})
    ->Args({100, 10})
    ->Args({100, 25});

void BM_CrCodingMatrixConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto r = static_cast<std::size_t>(state.range(1));
  stats::Rng rng(7);
  for (auto _ : state) {
    core::CyclicRepetitionScheme scheme(n, r, rng);
    benchmark::DoNotOptimize(scheme.coding_matrix().data().data());
  }
}
BENCHMARK(BM_CrCodingMatrixConstruction)->Args({50, 10})->Args({100, 10});

}  // namespace

BENCHMARK_MAIN();
