#pragma once

/// \file solve.hpp
/// Dense direct solvers: partial-pivot LU and Householder QR least
/// squares.
///
/// The cyclic-repetition gradient-coding decoder (core/cyclic_repetition)
/// recovers the all-ones combination by solving the overdetermined system
/// `B_W^T a = 1` in the least-squares sense; `lstsq` below is that path.

#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace coupon::linalg {

/// LU factorization with partial pivoting: P*A = L*U packed in-place.
/// `piv[k]` records the row swapped into position k at step k.
struct LuFactors {
  Matrix lu;                   ///< L (unit lower, below diag) and U packed
  std::vector<std::size_t> piv;
  bool singular = false;       ///< true if a zero pivot was hit
};

/// Factors a square matrix. Never throws on singularity; check `.singular`.
LuFactors lu_factor(Matrix a);

/// Solves A x = b given factors. Returns nullopt if factors are singular.
std::optional<std::vector<double>> lu_solve(const LuFactors& factors,
                                            std::span<const double> b);

/// Convenience: solve A x = b for square A. Returns nullopt if singular.
std::optional<std::vector<double>> solve(const Matrix& a,
                                         std::span<const double> b);

/// Householder QR of an m x n matrix with m >= n: A = Q * R.
/// Householder vectors are stored below the diagonal of `qr`, the scalar
/// factors in `tau`, and R on/above the diagonal.
struct QrFactors {
  Matrix qr;
  std::vector<double> tau;
  bool rank_deficient = false;  ///< true if an |R_kk| underflowed tolerance
};

/// Factors A (rows >= cols required).
QrFactors qr_factor(Matrix a);

/// Least-squares solve min_x ||A x - b||_2 via the QR factors.
/// Returns nullopt when R is numerically rank deficient.
std::optional<std::vector<double>> qr_solve(const QrFactors& factors,
                                            std::span<const double> b);

/// Convenience: least-squares solution of A x = b (rows >= cols).
std::optional<std::vector<double>> lstsq(const Matrix& a,
                                         std::span<const double> b);

/// Scratch for `lstsq_into`: factor storage and solve temporaries reused
/// across calls, so a warm same-shape solve performs zero allocations.
struct LstsqWorkspace {
  Matrix qr;              ///< factor storage (copy of A, factored in place)
  std::vector<double> tau;
  std::vector<double> v;  ///< Householder reflector scratch
  std::vector<double> y;  ///< Q^T b scratch
};

/// Workspace-reusing least squares: solves min_x ||A x - b||_2 into `x`
/// (size A.cols()), producing bits identical to `lstsq` (same
/// factorization and substitution arithmetic, in the same order). Returns
/// false when A is numerically rank deficient.
bool lstsq_into(const Matrix& a, std::span<const double> b,
                std::span<double> x, LstsqWorkspace& ws);

/// ||A x - b||_2 — residual helper shared by tests and the CR decoder.
double residual_norm(const Matrix& a, std::span<const double> x,
                     std::span<const double> b);

}  // namespace coupon::linalg
