// Microbenchmarks for the linalg substrate (google-benchmark): the
// kernels of worker compute (dot/axpy and the row kernels of the
// logistic gradient and loss) and master decode (QR least squares for
// CR).

#include <benchmark/benchmark.h>

#include "linalg/gemv.hpp"
#include "linalg/solve.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/rng.hpp"

namespace {

using coupon::linalg::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  coupon::stats::Rng rng(seed);
  Matrix m(rows, cols);
  for (auto& v : m.data()) {
    v = rng.normal();
  }
  return m;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  coupon::stats::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) {
    x = rng.normal();
  }
  return v;
}

void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vector(n, 1);
  const auto y = random_vector(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coupon::linalg::dot(x, y));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 16);
}
BENCHMARK(BM_Dot)->Arg(1000)->Arg(8000)->Arg(64000);

void BM_Axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vector(n, 3);
  auto y = random_vector(n, 4);
  for (auto _ : state) {
    coupon::linalg::axpy(0.5, x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Axpy)->Arg(1000)->Arg(8000)->Arg(64000);

void BM_Gemv(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  const auto a = random_matrix(rows, cols, 5);
  const auto x = random_vector(cols, 6);
  std::vector<double> y(rows, 0.0);
  for (auto _ : state) {
    coupon::linalg::gemv(1.0, a, x, 0.0, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Gemv)->Args({100, 8000})->Args({1000, 1000});

// One 64-example block of the logistic gradient's two row passes, at
// p = 8 and 20 (perf_sim's train rows run p = 20), perfbench's p = 100,
// and p = 1000. per_row:1 times the per-row dot/axpy loop instead; both
// produce the same bits.
constexpr std::size_t kBlockRows = 64;

void BM_DotRows(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const bool per_row = state.range(1) != 0;
  const auto rows = random_vector(kBlockRows * p, 14);
  const auto w = random_vector(p, 15);
  std::vector<double> out(kBlockRows);
  for (auto _ : state) {
    if (per_row) {
      for (std::size_t k = 0; k < kBlockRows; ++k) {
        out[k] = coupon::linalg::dot({rows.data() + k * p, p}, w);
      }
    } else {
      coupon::linalg::dot_rows(rows.data(), kBlockRows, p, w.data(),
                               out.data());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DotRows)
    ->ArgNames({"p", "per_row"})
    ->ArgsProduct({{8, 20, 100, 1000}, {0, 1}});

void BM_AxpyRows(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const bool per_row = state.range(1) != 0;
  const auto rows = random_vector(kBlockRows * p, 16);
  const auto coefs = random_vector(kBlockRows, 17);
  auto out = random_vector(p, 18);
  for (auto _ : state) {
    if (per_row) {
      for (std::size_t k = 0; k < kBlockRows; ++k) {
        coupon::linalg::axpy(coefs[k], {rows.data() + k * p, p}, out);
      }
    } else {
      coupon::linalg::axpy_rows(coefs.data(), rows.data(), kBlockRows, p,
                                out.data());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AxpyRows)
    ->ArgNames({"p", "per_row"})
    ->ArgsProduct({{8, 20, 100, 1000}, {0, 1}});

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_matrix(n, n, 11);
  const auto b = random_vector(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coupon::linalg::solve(a, b));
  }
}
BENCHMARK(BM_LuSolve)->Arg(25)->Arg(50)->Arg(100);

void BM_QrLeastSquares(benchmark::State& state) {
  // The CR decode shape: n rows (units), n - s columns (survivors).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cols = n - n / 10;
  const auto a = random_matrix(n, cols, 13);
  const std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coupon::linalg::lstsq(a, b));
  }
}
BENCHMARK(BM_QrLeastSquares)->Arg(50)->Arg(100)->Arg(200);

}  // namespace

BENCHMARK_MAIN();
