#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace coupon::linalg {

namespace detail {

void dot_rows_scalar(const double* rows, std::size_t count, std::size_t p,
                     const double* w, double* out) {
  for (std::size_t k = 0; k < count; ++k, rows += p) {
    out[k] = dot_scalar(rows, w, p);
  }
}

void axpy_rows_scalar(const double* coefs, const double* rows,
                      std::size_t count, std::size_t p, double* out) {
  for (std::size_t k = 0; k < count; ++k, rows += p) {
    axpy_scalar(coefs[k], rows, out, p);
  }
}

}  // namespace detail

#if COUPON_LINALG_X86_DISPATCH
namespace {

/// dot_rows over four rows per pass: each row keeps its own accumulator
/// and dot_avx2's exact chain — zero start, the same vector adds in the
/// same order, the tail folded into lane 0, the (s0 + s1) + (s2 + s3)
/// reduce — so each out[k] has dot()'s bits. The four chains share each
/// load of w and no longer serialize behind one another.
__attribute__((target("avx2"))) void dot_rows_avx2(const double* rows,
                                                   std::size_t count,
                                                   std::size_t p,
                                                   const double* w,
                                                   double* out) {
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4, rows += 4 * p) {
    const double* r[4];
    __m256d acc[4];
    for (int q = 0; q < 4; ++q) {
      r[q] = rows + q * p;
      acc[q] = _mm256_setzero_pd();
    }
    std::size_t i = 0;
    for (; i + 4 <= p; i += 4) {
      const __m256d wv = _mm256_loadu_pd(w + i);
      for (int q = 0; q < 4; ++q) {
        acc[q] = _mm256_add_pd(acc[q],
                               _mm256_mul_pd(_mm256_loadu_pd(r[q] + i), wv));
      }
    }
    // Transpose: lane q of s_j is row q's accumulator s_j, so the tail
    // fold into s0 and the (s0 + s1) + (s2 + s3) reduce run for the four
    // rows at once, each lane with dot_avx2's exact ops.
    const __m256d lo01 = _mm256_unpacklo_pd(acc[0], acc[1]);
    const __m256d hi01 = _mm256_unpackhi_pd(acc[0], acc[1]);
    const __m256d lo23 = _mm256_unpacklo_pd(acc[2], acc[3]);
    const __m256d hi23 = _mm256_unpackhi_pd(acc[2], acc[3]);
    __m256d s0 = _mm256_permute2f128_pd(lo01, lo23, 0x20);
    const __m256d s1 = _mm256_permute2f128_pd(hi01, hi23, 0x20);
    const __m256d s2 = _mm256_permute2f128_pd(lo01, lo23, 0x31);
    const __m256d s3 = _mm256_permute2f128_pd(hi01, hi23, 0x31);
    for (; i < p; ++i) {
      const __m256d x = _mm256_set_pd(r[3][i], r[2][i], r[1][i], r[0][i]);
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(x, _mm256_set1_pd(w[i])));
    }
    const __m256d s01 = _mm256_add_pd(s0, s1);
    const __m256d s23 = _mm256_add_pd(s2, s3);
    _mm256_storeu_pd(out + k, _mm256_add_pd(s01, s23));
  }
  for (; k < count; ++k, rows += p) {
    out[k] = detail::dot_avx2(rows, w, p);
  }
}

/// axpy_rows over four rows per pass of `out`: each 4-wide chunk of out
/// is loaded once, receives the four rows' mul+add in k order, and is
/// stored once. Every element sees exactly the per-row axpy's updates in
/// the same order, so the bits match; avx2-without-fma forbids
/// contraction.
__attribute__((target("avx2"))) void axpy_rows_avx2(const double* coefs,
                                                    const double* rows,
                                                    std::size_t count,
                                                    std::size_t p,
                                                    double* out) {
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4, rows += 4 * p) {
    const double* r[4];
    __m256d c[4];
    for (int q = 0; q < 4; ++q) {
      r[q] = rows + q * p;
      c[q] = _mm256_set1_pd(coefs[k + q]);
    }
    std::size_t i = 0;
    for (; i + 4 <= p; i += 4) {
      __m256d o = _mm256_loadu_pd(out + i);
      for (int q = 0; q < 4; ++q) {
        o = _mm256_add_pd(o, _mm256_mul_pd(c[q], _mm256_loadu_pd(r[q] + i)));
      }
      _mm256_storeu_pd(out + i, o);
    }
    for (; i < p; ++i) {
      double o = out[i];
      for (int q = 0; q < 4; ++q) {
        o += coefs[k + q] * r[q][i];
      }
      out[i] = o;
    }
  }
  for (; k < count; ++k, rows += p) {
    detail::axpy_avx2(coefs[k], rows, out, p);
  }
}

}  // namespace
#endif  // COUPON_LINALG_X86_DISPATCH

void dot_rows(const double* rows, std::size_t count, std::size_t p,
              const double* w, double* out) {
#if COUPON_LINALG_X86_DISPATCH
  if (__builtin_cpu_supports("avx2")) {
    dot_rows_avx2(rows, count, p, w, out);
    return;
  }
#endif
  detail::dot_rows_scalar(rows, count, p, w, out);
}

void axpy_rows(const double* coefs, const double* rows, std::size_t count,
               std::size_t p, double* out) {
#if COUPON_LINALG_X86_DISPATCH
  if (__builtin_cpu_supports("avx2")) {
    axpy_rows_avx2(coefs, rows, count, p, out);
    return;
  }
#endif
  detail::axpy_rows_scalar(coefs, rows, count, p, out);
}

double nrm2(std::span<const double> x) {
  // Scaled accumulation to avoid overflow/underflow for extreme inputs.
  double scale = 0.0;
  double ssq = 1.0;
  for (double v : x) {
    if (v == 0.0) {
      continue;
    }
    const double a = std::abs(v);
    if (scale < a) {
      ssq = 1.0 + ssq * (scale / a) * (scale / a);
      scale = a;
    } else {
      ssq += (a / scale) * (a / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

double asum_signed(std::span<const double> x) {
  double s = 0.0;
  for (double v : x) {
    s += v;
  }
  return s;
}

void add(std::span<const double> a, std::span<const double> b,
         std::span<double> out) {
  COUPON_ASSERT(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] + b[i];
  }
}

void sub(std::span<const double> a, std::span<const double> b,
         std::span<double> out) {
  COUPON_ASSERT(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] - b[i];
  }
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  COUPON_ASSERT(a.size() == b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

double max_abs(std::span<const double> a) {
  double m = 0.0;
  for (double v : a) {
    m = std::max(m, std::abs(v));
  }
  return m;
}

}  // namespace coupon::linalg
