#include "linalg/solve.hpp"

#include <cmath>

#include "linalg/gemv.hpp"
#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::linalg {

namespace {
constexpr double kPivotTol = 1e-12;
}

LuFactors lu_factor(Matrix a) {
  COUPON_ASSERT(a.rows() == a.cols());
  const std::size_t n = a.rows();
  LuFactors f{std::move(a), std::vector<std::size_t>(n), false};
  Matrix& m = f.lu;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |entry| in column k at or below the diagonal.
    std::size_t p = k;
    double best = std::abs(m(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(m(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    f.piv[k] = p;
    if (best < kPivotTol) {
      f.singular = true;
      continue;
    }
    if (p != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(m(k, c), m(p, c));
      }
    }
    const double pivot = m(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double l = m(i, k) / pivot;
      m(i, k) = l;
      if (l == 0.0) {
        continue;
      }
      for (std::size_t c = k + 1; c < n; ++c) {
        m(i, c) -= l * m(k, c);
      }
    }
  }
  return f;
}

std::optional<std::vector<double>> lu_solve(const LuFactors& factors,
                                            std::span<const double> b) {
  if (factors.singular) {
    return std::nullopt;
  }
  const Matrix& m = factors.lu;
  const std::size_t n = m.rows();
  COUPON_ASSERT(b.size() == n);
  std::vector<double> x(b.begin(), b.end());
  // Apply the recorded row swaps, then forward/back substitution.
  for (std::size_t k = 0; k < n; ++k) {
    if (factors.piv[k] != k) {
      std::swap(x[k], x[factors.piv[k]]);
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    double s = x[i];
    for (std::size_t j = 0; j < i; ++j) {
      s -= m(i, j) * x[j];
    }
    x[i] = s;
  }
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = x[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      s -= m(i, j) * x[j];
    }
    x[i] = s / m(i, i);
  }
  return x;
}

std::optional<std::vector<double>> solve(const Matrix& a,
                                         std::span<const double> b) {
  return lu_solve(lu_factor(a), b);
}

namespace {

/// Shared core of `qr_factor` and `lstsq_into`: factors `qr` in place
/// using `v` as reflector scratch. Returns true when rank deficient. The
/// loop bodies are the arithmetic `qr_factor` has always used, so both
/// entry points produce bit-identical factors.
bool qr_factor_inplace(Matrix& qr, std::vector<double>& tau,
                       std::vector<double>& v) {
  COUPON_ASSERT_MSG(qr.rows() >= qr.cols(),
                    "qr_factor requires rows >= cols, got "
                        << qr.rows() << "x" << qr.cols());
  const std::size_t m = qr.rows();
  const std::size_t n = qr.cols();
  tau.assign(n, 0.0);
  v.resize(m);
  bool rank_deficient = false;

  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder reflector annihilating column k below row k.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      norm = std::hypot(norm, qr(i, k));
    }
    if (norm < kPivotTol) {
      rank_deficient = true;
      tau[k] = 0.0;
      continue;
    }
    const double alpha = qr(k, k) >= 0.0 ? -norm : norm;
    const double vk = qr(k, k) - alpha;
    v[k] = vk;
    for (std::size_t i = k + 1; i < m; ++i) {
      v[i] = qr(i, k);
    }
    const double vnorm2 = vk * vk + [&] {
      double s = 0.0;
      for (std::size_t i = k + 1; i < m; ++i) {
        s += v[i] * v[i];
      }
      return s;
    }();
    if (vnorm2 < kPivotTol * kPivotTol) {
      rank_deficient = true;
      tau[k] = 0.0;
      continue;
    }
    const double t = 2.0 / vnorm2;
    tau[k] = t;

    // Apply H = I - tau v v^T to the trailing block columns [k, n).
    for (std::size_t c = k; c < n; ++c) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) {
        s += v[i] * qr(i, c);
      }
      s *= t;
      for (std::size_t i = k; i < m; ++i) {
        qr(i, c) -= s * v[i];
      }
    }
    // R_kk was just produced in place; store v below the diagonal scaled
    // so the leading entry is implicit (standard compact storage).
    COUPON_ASSERT(std::abs(qr(k, k)) > 0.0);
    for (std::size_t i = k + 1; i < m; ++i) {
      qr(i, k) = v[i] / vk;
    }
    // Keep tau in the convention where the reflector is
    // H = I - tau_eff u u^T with u = [1, qr(k+1..m, k)]; tau_eff = tau*vk^2.
    tau[k] = t * vk * vk;
  }
  return rank_deficient;
}

/// Shared core of `qr_solve` and `lstsq_into`: applies the reflectors to
/// `b` (via scratch `y`) and back-substitutes into `x`. Returns false on a
/// numerically-singular R diagonal.
bool qr_solve_inplace(const Matrix& qr, std::span<const double> tau,
                      std::span<const double> b, std::vector<double>& y,
                      std::span<double> x) {
  const std::size_t m = qr.rows();
  const std::size_t n = qr.cols();
  COUPON_ASSERT(b.size() == m);
  COUPON_ASSERT(x.size() == n);
  y.assign(b.begin(), b.end());

  // y = Q^T b: apply reflectors in order.
  for (std::size_t k = 0; k < n; ++k) {
    const double t = tau[k];
    if (t == 0.0) {
      continue;
    }
    double s = y[k];
    for (std::size_t i = k + 1; i < m; ++i) {
      s += qr(i, k) * y[i];
    }
    s *= t;
    y[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) {
      y[i] -= s * qr(i, k);
    }
  }
  // Back substitution on R x = y[0..n).
  for (std::size_t kk = n; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    double s = y[k];
    for (std::size_t j = k + 1; j < n; ++j) {
      s -= qr(k, j) * x[j];
    }
    const double rkk = qr(k, k);
    if (std::abs(rkk) < kPivotTol) {
      return false;
    }
    x[k] = s / rkk;
  }
  return true;
}

}  // namespace

QrFactors qr_factor(Matrix a) {
  QrFactors f{std::move(a), {}, false};
  std::vector<double> v;
  f.rank_deficient = qr_factor_inplace(f.qr, f.tau, v);
  return f;
}

std::optional<std::vector<double>> qr_solve(const QrFactors& factors,
                                            std::span<const double> b) {
  if (factors.rank_deficient) {
    return std::nullopt;
  }
  std::vector<double> y;
  std::vector<double> x(factors.qr.cols());
  if (!qr_solve_inplace(factors.qr, factors.tau, b, y, x)) {
    return std::nullopt;
  }
  return x;
}

std::optional<std::vector<double>> lstsq(const Matrix& a,
                                         std::span<const double> b) {
  return qr_solve(qr_factor(a), b);
}

bool lstsq_into(const Matrix& a, std::span<const double> b,
                std::span<double> x, LstsqWorkspace& ws) {
  ws.qr = a;  // vector copy-assignment reuses ws.qr's storage
  if (qr_factor_inplace(ws.qr, ws.tau, ws.v)) {
    return false;
  }
  return qr_solve_inplace(ws.qr, ws.tau, b, ws.y, x);
}

double residual_norm(const Matrix& a, std::span<const double> x,
                     std::span<const double> b) {
  COUPON_ASSERT(x.size() == a.cols() && b.size() == a.rows());
  std::vector<double> r(b.begin(), b.end());
  gemv(1.0, a, x, -1.0, std::span<double>(r));
  // r now holds A x - b (gemv computed 1*A*x + (-1)*b elementwise into r).
  return nrm2(r);
}

}  // namespace coupon::linalg
