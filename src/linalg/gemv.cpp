#include "linalg/gemv.hpp"

#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::linalg {

void gemv(double alpha, const Matrix& a, std::span<const double> x,
          double beta, std::span<double> y) {
  COUPON_ASSERT(x.size() == a.cols());
  COUPON_ASSERT(y.size() == a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    y[r] = alpha * dot(a.row(r), x) + beta * y[r];
  }
}

}  // namespace coupon::linalg
