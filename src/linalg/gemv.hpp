#pragma once

/// \file gemv.hpp
/// BLAS-2 matrix-vector product for the dense solvers (residuals, Ax).
///
/// The training path does not go through here: the logistic gradient
/// and loss walk example rows with the row kernels of vector_ops.hpp.

#include <span>

#include "linalg/matrix.hpp"

namespace coupon::linalg {

/// y = alpha * A * x + beta * y. Requires x.size() == A.cols(),
/// y.size() == A.rows().
void gemv(double alpha, const Matrix& a, std::span<const double> x,
          double beta, std::span<double> y);

}  // namespace coupon::linalg
