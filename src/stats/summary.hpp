#pragma once

/// \file summary.hpp
/// Streaming summary statistics for experiment results.

#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

namespace coupon::stats {

/// Numerically stable streaming moments (Welford), plus min/max.
class OnlineStats {
 public:
  /// Adds one observation.
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0 when fewer than two observations.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  /// Standard error of the mean; 0 when fewer than two observations.
  double sem() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// One-sample Kolmogorov–Smirnov statistic: the sup-distance between the
/// empirical CDF of `samples` and the reference `cdf`. Used by the tests
/// to validate that simulated latencies follow the Eq. 15 model (a KS
/// distance ~ 1.36/sqrt(n) is the 95% acceptance line for n samples).
double ks_distance(std::vector<double> samples,
                   const std::function<double(double)>& cdf);

}  // namespace coupon::stats
