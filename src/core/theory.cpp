#include "core/theory.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/assert.hpp"

namespace coupon::core::theory {

double harmonic(std::size_t t) {
  // Sum smallest-first for accuracy; t is at most ~1e7 in any experiment.
  double h = 0.0;
  for (std::size_t k = t; k >= 1; --k) {
    h += 1.0 / static_cast<double>(k);
  }
  return h;
}

double harmonic_approx(double t) {
  constexpr double kEulerGamma = 0.57721566490153286;
  COUPON_ASSERT(t > 0.0);
  return std::log(t) + kEulerGamma + 1.0 / (2.0 * t);
}

std::size_t bcc_batches(std::size_t m, std::size_t r) {
  COUPON_ASSERT(m > 0 && r > 0);
  return (m + r - 1) / r;
}

double k_bcc(std::size_t m, std::size_t r) {
  const std::size_t b = bcc_batches(m, r);
  return static_cast<double>(b) * harmonic(b);
}

double bcc_coverage_failure_probability(std::size_t n, std::size_t batches) {
  COUPON_ASSERT(batches > 0);
  // P(some batch uncovered) by inclusion-exclusion:
  //   sum_{k=1}^{B-1} (-1)^{k+1} C(B,k) (1 - k/B)^n.
  const double b = static_cast<double>(batches);
  const double workers = static_cast<double>(n);
  double prob = 0.0;
  double log_binom = 0.0;  // log C(B, k), updated incrementally
  for (std::size_t k = 1; k < batches; ++k) {
    log_binom += std::log(b - static_cast<double>(k) + 1.0) -
                 std::log(static_cast<double>(k));
    const double term = std::exp(
        log_binom + workers * std::log1p(-static_cast<double>(k) / b));
    prob += (k % 2 == 1) ? term : -term;
  }
  return std::clamp(prob, 0.0, 1.0);
}

double k_lower_bound(std::size_t m, std::size_t r) {
  COUPON_ASSERT(m > 0 && r > 0);
  return static_cast<double>(m) / static_cast<double>(r);
}

double k_cyclic_repetition(std::size_t m, std::size_t r) {
  COUPON_ASSERT(r >= 1 && r <= m);
  return static_cast<double>(m - r + 1);
}

double k_simple_random_approx(std::size_t m, std::size_t r) {
  COUPON_ASSERT(m > 0 && r > 0);
  return static_cast<double>(m) / static_cast<double>(r) *
         std::log(static_cast<double>(m));
}

double l_simple_random_approx(std::size_t m) {
  COUPON_ASSERT(m > 0);
  return static_cast<double>(m) * std::log(static_cast<double>(m));
}

double l_bcc(std::size_t m, std::size_t r) { return k_bcc(m, r); }

double coupon_expected_draws(std::size_t types) {
  return static_cast<double>(types) * harmonic(types);
}

double coupon_draws_variance(std::size_t types) {
  COUPON_ASSERT(types > 0);
  const double n = static_cast<double>(types);
  double var = 0.0;
  for (std::size_t k = 1; k <= types; ++k) {
    const double p = (n - static_cast<double>(k) + 1.0) / n;
    var += (1.0 - p) / (p * p);
  }
  return var;
}

double lemma2_tail_bound(std::size_t m, double eps) {
  COUPON_ASSERT(m > 0 && eps >= 0.0);
  return std::pow(static_cast<double>(m), -eps);
}

double expected_max_shifted_exponential(double a, double mu, double load,
                                        std::size_t n) {
  return expected_kth_order_statistic_shifted_exp(a, mu, load, n, n);
}

double expected_kth_order_statistic_shifted_exp(double a, double mu,
                                                double load, std::size_t n,
                                                std::size_t k) {
  COUPON_ASSERT(mu > 0.0 && load > 0.0 && n > 0);
  COUPON_ASSERT_MSG(k >= 1 && k <= n, "k=" << k << " n=" << n);
  return a * load + load / mu * (harmonic(n) - harmonic(n - k));
}

double k_gc_cyclic(std::size_t n, std::size_t r) {
  COUPON_ASSERT(r >= 1 && r <= n);
  return static_cast<double>(n - r + 1);
}

double k_sgc(std::size_t n, std::size_t r) {
  COUPON_ASSERT(r >= 1 && r <= n);
  return static_cast<double>(n - r + 1);
}

double k_gc_nested(std::size_t n, std::size_t r) {
  COUPON_ASSERT(r >= 1 && r <= n && n % r == 0);
  return static_cast<double>(n - r + 1);
}

std::size_t gc_nested_levels(std::size_t r) {
  COUPON_ASSERT(r >= 1);
  std::size_t levels = 0;
  for (std::size_t w = 1; w <= r; ++w) {
    if (r % w == 0) {
      ++levels;
    }
  }
  return levels;
}

double sgc_decode_scale(std::size_t n, std::size_t r, std::size_t k) {
  COUPON_ASSERT(r >= 1 && r <= n && k >= 1 && k <= n);
  return static_cast<double>(n) /
         (static_cast<double>(r) * static_cast<double>(k));
}

double sgc_estimator_variance_factor(std::size_t n, std::size_t r,
                                     std::size_t k) {
  COUPON_ASSERT(n >= 2 && r >= 1 && r <= n && k >= 1 && k <= n);
  const double scale = sgc_decode_scale(n, r, k);
  const double nn = static_cast<double>(n);
  const double kk = static_cast<double>(k);
  return scale * scale * kk * (nn - kk) / (nn - 1.0);
}

double expected_max_pareto(double scale, double alpha, std::size_t n) {
  COUPON_ASSERT_MSG(scale > 0.0 && alpha > 1.0 && n > 0,
                    "scale=" << scale << " alpha=" << alpha << " n=" << n);
  // E[max] = scale * B(n, 1-1/alpha) * n, computed via log-gammas to stay
  // finite for large n.
  const double inv = 1.0 / alpha;
  return scale * std::exp(std::lgamma(static_cast<double>(n) + 1.0) +
                          std::lgamma(1.0 - inv) -
                          std::lgamma(static_cast<double>(n) + 1.0 - inv));
}

std::size_t coupon_draws_once(std::size_t types, stats::Rng& rng) {
  COUPON_ASSERT(types > 0);
  std::vector<bool> seen(types, false);
  std::size_t covered = 0;
  std::size_t draws = 0;
  while (covered < types) {
    ++draws;
    const auto c = static_cast<std::size_t>(rng.uniform_int(types));
    if (!seen[c]) {
      seen[c] = true;
      ++covered;
    }
  }
  return draws;
}

double mc_coupon_draws(std::size_t types, std::size_t trials,
                       stats::Rng& rng) {
  COUPON_ASSERT(trials > 0);
  double total = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    total += static_cast<double>(coupon_draws_once(types, rng));
  }
  return total / static_cast<double>(trials);
}

double mc_simple_random_threshold(std::size_t m, std::size_t r,
                                  std::size_t trials, stats::Rng& rng) {
  COUPON_ASSERT(m > 0 && r > 0 && r <= m && trials > 0);
  double total = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    std::vector<bool> covered(m, false);
    std::size_t num_covered = 0;
    std::size_t workers = 0;
    while (num_covered < m) {
      ++workers;
      for (std::size_t j : rng.sample_without_replacement(m, r)) {
        if (!covered[j]) {
          covered[j] = true;
          ++num_covered;
        }
      }
    }
    total += static_cast<double>(workers);
  }
  return total / static_cast<double>(trials);
}

double mc_fractional_repetition_threshold(std::size_t n, std::size_t r,
                                          std::size_t trials,
                                          stats::Rng& rng) {
  COUPON_ASSERT(n > 0 && r > 0 && n % r == 0 && trials > 0);
  const std::size_t blocks = n / r;
  double total = 0.0;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (std::size_t t = 0; t < trials; ++t) {
    rng.shuffle(order);
    std::vector<bool> seen(blocks, false);
    std::size_t covered = 0;
    std::size_t heard = 0;
    for (std::size_t i = 0; i < n && covered < blocks; ++i) {
      ++heard;
      const std::size_t block = order[i] % blocks;
      if (!seen[block]) {
        seen[block] = true;
        ++covered;
      }
    }
    total += static_cast<double>(heard);
  }
  return total / static_cast<double>(trials);
}

}  // namespace coupon::core::theory
