#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace coupon::stats {

void OnlineStats::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::sem() const {
  if (count_ < 2) {
    return 0.0;
  }
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double ks_distance(std::vector<double> samples,
                   const std::function<double(double)>& cdf) {
  COUPON_ASSERT(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double d = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double f = cdf(samples[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max({d, std::abs(f - lo), std::abs(f - hi)});
  }
  return d;
}

}  // namespace coupon::stats
