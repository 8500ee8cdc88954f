#pragma once

/// \file vector_ops.hpp
/// BLAS-1 style kernels over `std::span<double>`, plus the two row kernels
/// of the training path.
///
/// These free functions are the building blocks for the gradient
/// computations (sums of per-example gradients) and for the dense solvers.
/// They are deliberately allocation-free; callers own all buffers.
///
/// `dot_rows`/`axpy_rows` serve the logistic gradient and loss: one call
/// covers a block of contiguous rows, so they live in vector_ops.cpp. The
/// per-vector kernels (dot, axpy, scal, fill, copy) are defined inline
/// here: the solvers and the per-row callers invoke them once per row,
/// where the call into a separate translation unit costs more than a
/// short loop body. Bitwise-safe to inline — every TU compiles with the
/// same flags and the loop bodies fix the association order, so inlining
/// cannot change results. Their size checks use `COUPON_DCHECK` (the
/// documented hot-inner-loop idiom in util/assert.hpp): at ~10ns per
/// kernel call an always-on branch per invocation is measurable.
///
/// On x86, dot, axpy and the row kernels runtime-dispatch to an AVX2 body
/// that performs the scalar body's IEEE operations in the same
/// association order, so which path runs never changes a bit (DESIGN.md
/// §12). The scalar bodies are named `detail::*_scalar` so tests can pin
/// both paths on any host.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "util/assert.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define COUPON_LINALG_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace coupon::linalg {

namespace detail {

/// Scalar dot: four-way unrolled accumulation (s_l sums x[4i+l] *
/// y[4i+l]), the tail folded into s0, reduced as (s0 + s1) + (s2 + s3).
/// Measurably faster than the naive loop at -O2, and the fixed
/// association order keeps rounding deterministic.
inline double dot_scalar(const double* x, const double* y, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) {
    s0 += x[i] * y[i];
  }
  return (s0 + s1) + (s2 + s3);
}

/// Scalar axpy: y[i] += alpha * x[i].
inline void axpy_scalar(double alpha, const double* x, double* y,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

/// Scalar dot_rows: dot_scalar per row.
void dot_rows_scalar(const double* rows, std::size_t count, std::size_t p,
                     const double* w, double* out);

/// Scalar axpy_rows: axpy_scalar per row, in row order.
void axpy_rows_scalar(const double* coefs, const double* rows,
                      std::size_t count, std::size_t p, double* out);

#if COUPON_LINALG_X86_DISPATCH
/// AVX2 dot with the lane layout of dot_scalar: vector lane l holds
/// exactly the scalar accumulator s_l, the tail folds into s0, and the
/// reduce is the scalar's (s0 + s1) + (s2 + s3). Every lane op is the
/// same IEEE multiply/add as the scalar code, so the result is
/// bit-identical. The target attribute enables avx2 only — not fma — so
/// the compiler cannot contract the mul+add into a fused
/// (differently-rounded) instruction.
__attribute__((target("avx2"))) inline double dot_avx2(const double* x,
                                                       const double* y,
                                                       std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  alignas(32) double s[4];
  _mm256_store_pd(s, acc);
  for (; i < n; ++i) {
    s[0] += x[i] * y[i];
  }
  return (s[0] + s[1]) + (s[2] + s[3]);
}

/// AVX2 axpy. Each element's update is the same two IEEE ops as the
/// scalar loop (no cross-element arithmetic), so vector width cannot
/// change bits; avx2-without-fma again forbids contraction.
__attribute__((target("avx2"))) inline void axpy_avx2(double alpha,
                                                      const double* x,
                                                      double* y,
                                                      std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}
#endif  // COUPON_LINALG_X86_DISPATCH

}  // namespace detail

/// Dot product <x, y>. Requires x.size() == y.size().
inline double dot(std::span<const double> x, std::span<const double> y) {
  COUPON_DCHECK(x.size() == y.size());
  const std::size_t n = x.size();
#if COUPON_LINALG_X86_DISPATCH
  // Runtime dispatch: one cached-feature load + predictable branch. The
  // AVX2 kernel reproduces the scalar association order exactly (see
  // detail::dot_avx2), so which path runs never changes results.
  if (n >= 8 && __builtin_cpu_supports("avx2")) {
    return detail::dot_avx2(x.data(), y.data(), n);
  }
#endif
  return detail::dot_scalar(x.data(), y.data(), n);
}

/// y += alpha * x. Requires x.size() == y.size().
inline void axpy(double alpha, std::span<const double> x,
                 std::span<double> y) {
  COUPON_DCHECK(x.size() == y.size());
  const std::size_t n = x.size();
#if COUPON_LINALG_X86_DISPATCH
  if (n >= 8 && __builtin_cpu_supports("avx2")) {
    detail::axpy_avx2(alpha, x.data(), y.data(), n);
    return;
  }
#endif
  detail::axpy_scalar(alpha, x.data(), y.data(), n);
}

/// out[k] = <rows + k*p, w> for `count` contiguous rows of length p —
/// bit-identical to calling dot() per row, for every p.
void dot_rows(const double* rows, std::size_t count, std::size_t p,
              const double* w, double* out);

/// out += sum_k coefs[k] * (rows + k*p) over `count` contiguous rows of
/// length p — bit-identical to calling axpy() per row in k order, for
/// every p.
void axpy_rows(const double* coefs, const double* rows, std::size_t count,
               std::size_t p, double* out);

/// x *= alpha.
inline void scal(double alpha, std::span<double> x) {
  for (double& v : x) {
    v *= alpha;
  }
}

/// Euclidean norm ||x||_2.
double nrm2(std::span<const double> x);

/// Sum of elements.
double asum_signed(std::span<const double> x);

/// y = x (sizes must match).
inline void copy(std::span<const double> x, std::span<double> y) {
  COUPON_DCHECK(x.size() == y.size());
  std::copy(x.begin(), x.end(), y.begin());
}

/// x = value everywhere.
inline void fill(std::span<double> x, double value) {
  std::fill(x.begin(), x.end(), value);
}

/// out = a + b (sizes must match).
void add(std::span<const double> a, std::span<const double> b,
         std::span<double> out);

/// out = a - b (sizes must match).
void sub(std::span<const double> a, std::span<const double> b,
         std::span<double> out);

/// max_i |a_i - b_i|; 0 for empty spans. Sizes must match.
double max_abs_diff(std::span<const double> a, std::span<const double> b);

/// max_i |a_i|; 0 for empty spans.
double max_abs(std::span<const double> a);

}  // namespace coupon::linalg
