#pragma once

/// \file theory.hpp
/// Closed-form performance characterizations from the paper, plus
/// Monte-Carlo estimators for the quantities without closed forms.
///
/// These functions generate the analytic curves of Fig. 2, the bounds of
/// Theorem 1 and Lemma 2, and serve as oracles for the property tests
/// (empirical recovery thresholds must match the formulas).

#include <cstddef>

#include "stats/rng.hpp"

namespace coupon::core::theory {

/// H_t = sum_{k=1}^{t} 1/k (H_0 = 0). Exact summation.
double harmonic(std::size_t t);

/// Asymptotic H_t ~ ln t + gamma + 1/(2t); used in Remark 1 comparisons.
double harmonic_approx(double t);

/// Number of BCC batches B = ceil(m/r).
std::size_t bcc_batches(std::size_t m, std::size_t r);

/// Eq. (2): K_BCC(r) = ceil(m/r) * H_{ceil(m/r)}.
double k_bcc(std::size_t m, std::size_t r);

/// Probability that n workers drawing among `batches` BCC batches
/// uniformly miss at least one (coverage failure), exactly by
/// inclusion-exclusion.
double bcc_coverage_failure_probability(std::size_t n, std::size_t batches);

/// Theorem 1 lower bound: K*(r) >= m/r (also the L*(r) lower bound).
double k_lower_bound(std::size_t m, std::size_t r);

/// Eq. (7): K_CR = K_RS = K_CM = m - r + 1 (worst-case coded schemes).
double k_cyclic_repetition(std::size_t m, std::size_t r);

/// Eq. (5): K_random ≈ (m/r) log m for the simple randomized scheme.
double k_simple_random_approx(std::size_t m, std::size_t r);

/// Eq. (6): L_random ≈ m log m.
double l_simple_random_approx(std::size_t m);

/// L_BCC = K_BCC (each surviving worker ships one gradient unit, Eq. 14).
double l_bcc(std::size_t m, std::size_t r);

/// Classic coupon collector: expected draws to collect all `types`
/// coupons = types * H_types.
double coupon_expected_draws(std::size_t types);

/// Variance of the coupon-collector draw count M for `types` coupons:
/// M is a sum of independent geometrics with success probabilities
/// p_k = (N-k+1)/N, so Var[M] = sum_k (1-p_k)/p_k^2. Quantifies the
/// iteration-to-iteration spread of BCC's realized recovery threshold.
double coupon_draws_variance(std::size_t types);

/// Lemma 2 (Thm 1.23 of Auger & Doerr): with M the number of coupons
/// drawn until all m types are seen, Pr(M >= (1+eps) m log m) <= m^{-eps}.
double lemma2_tail_bound(std::size_t m, double eps);

/// Expected max of n i.i.d. shifted exponentials with shift a*load and
/// rate mu/load: a*load + (load/mu) * H_n. Appears as the waiting time of
/// wait-for-all schemes and in step (c) of the Theorem 2 proof.
///
/// Applicability across the simulator's latency models
/// (simulate/latency_model.hpp): the paper's analysis splits into
/// (i) combinatorial predictions about the recovery threshold K and
/// communication load L (Theorem 1, Eqs. 2/5/6/7) and (ii) runtime
/// predictions built on the Eq. 15 shifted-exponential law (this
/// function, Theorem 2, the Tables I/II totals).
///
///   * (i) holds under EVERY latency model: K and L depend only on the
///     placement and on which workers respond first, never on the law of
///     the compute times — the scenario sweeps across models confirm the
///     BCC < CR < uncoded threshold ordering everywhere
///     (bench/ablation_latency_models).
///   * (ii) is per-model:
///       - shifted_exp (and the hetero per-worker variant): exact — this
///         H_n formula is the wait-for-all time.
///       - bimodal ("bursty"): compute time is a mixture of two shifted
///         exponentials; the H_n logarithmic max-growth survives with an
///         inflated effective scale, so Eq. 15 curves are optimistic but
///         shape-correct.
///       - weibull with shape k < 1: stretched-exponential tail; E[max]
///         grows like (log n)^{1/k}, faster than H_n ~ log n. Eq. 15
///         underestimates the straggler penalty.
///       - pareto ("heavy_tail"): power-law tail; E[max] grows like
///         n^{1/alpha} (see expected_max_pareto) and for alpha <= 2 the
///         variance is infinite — the H_n predictions fail outright, and
///         with them the paper's "total time proportional to K" rule of
///         thumb, since one straggler can dominate an entire run.
///       - markov: marginally shifted-exponential per iteration, but
///         correlated across iterations; per-iteration expectations match
///         Eq. 15 while run totals concentrate much more slowly (the
///         independence assumption behind summing Eq. 15 across
///         iterations is violated).
///       - trace: no law at all; only the combinatorial predictions (i)
///         apply.
double expected_max_shifted_exponential(double a, double mu, double load,
                                        std::size_t n);

/// Expected k-th order statistic (1 <= k <= n) of n i.i.d. shifted
/// exponentials with shift a*load and rate mu/load. By the Rényi
/// representation the gaps between consecutive order statistics are
/// independent Exp((n-i) * mu/load), so
///   E[X_(k)] = a*load + (load/mu) * (H_n - H_{n-k}).
/// `expected_max_shifted_exponential` is the k = n special case, and the
/// analytic oracle (src/analytic/) reproduces this formula numerically —
/// the core_theory tests pin the two against each other.
double expected_kth_order_statistic_shifted_exp(double a, double mu,
                                                double load, std::size_t n,
                                                std::size_t k);

// --- Gradient-coding scheme families (ROADMAP item 2) ---------------------

/// Exact gradient coding (Tandon et al. 1612.03301), cyclic placement:
/// deterministic recovery threshold K = n - r + 1 — identical to Eq. 7's
/// coded bound, but achieved with bitwise-exact systematic decode.
double k_gc_cyclic(std::size_t n, std::size_t r);

/// Stochastic gradient coding (Bitar et al. 1905.05383): the master's
/// wait quota k* = n - r + 1. Not a recovery threshold in the exact
/// sense — decode is an unbiased estimate from whichever k* workers
/// arrive first.
double k_sgc(std::size_t n, std::size_t r);

/// Nested gradient codes (2212.08580): worst-case recovery threshold
/// K = n - r + 1 (the widest ladder level always decodes there); lighter
/// realized straggling decodes at a narrower level without waiting less.
double k_gc_nested(std::size_t n, std::size_t r);

/// Number of ladder levels L = d(r) (divisor count) in the nested code —
/// also the per-worker message size in gradient units.
std::size_t gc_nested_levels(std::size_t r);

/// SGC decode scale n / (r k) applied to the sum of the first k worker
/// messages; with each unit replicated r times, E[scaled sum] equals the
/// true gradient sum under exchangeable arrivals.
double sgc_decode_scale(std::size_t n, std::size_t r, std::size_t k);

/// Finite-population sampling factor of the SGC estimator's
/// per-coordinate variance when k of n messages arrive uniformly:
///   Var[ghat_j] = factor * Var_w(msg_w[j])
///   factor = (n/(rk))^2 * k (n-k) / (n-1)        (n >= 2, 1 <= k <= n)
/// where Var_w is the *population* variance over the n per-worker message
/// sums. Zero at k = n: the full aggregate is deterministic.
double sgc_estimator_variance_factor(std::size_t n, std::size_t r,
                                     std::size_t k);

/// Expected max of n i.i.d. Pareto(scale, alpha) draws:
///   scale * Gamma(n+1) * Gamma(1 - 1/alpha) / Gamma(n+1 - 1/alpha)
///   ~ scale * Gamma(1 - 1/alpha) * n^{1/alpha},
/// requires alpha > 1 (diverges otherwise). The heavy-tail counterpart of
/// `expected_max_shifted_exponential`: polynomial instead of logarithmic
/// growth in n, which is why Eq. 15's waiting-time predictions collapse
/// under the heavy_tail scenario.
double expected_max_pareto(double scale, double alpha, std::size_t n);

// --- Monte-Carlo estimators -----------------------------------------------

/// Mean draws (with replacement, one coupon per draw) to collect all
/// `types` coupons, over `trials` runs.
double mc_coupon_draws(std::size_t types, std::size_t trials,
                       stats::Rng& rng);

/// Mean number of workers heard until all m units are covered when each
/// worker holds r uniformly random distinct units (simple randomized
/// scheme; workers drawn i.i.d., i.e. with replacement across workers).
double mc_simple_random_threshold(std::size_t m, std::size_t r,
                                  std::size_t trials, stats::Rng& rng);

/// Mean number of workers heard (drawn uniformly *without* replacement
/// from the n workers) until all n/r FR blocks are covered.
double mc_fractional_repetition_threshold(std::size_t n, std::size_t r,
                                          std::size_t trials,
                                          stats::Rng& rng);

/// One draw of the number of coupons needed to collect all `types`
/// (used by the Lemma 2 tail bench).
std::size_t coupon_draws_once(std::size_t types, stats::Rng& rng);

}  // namespace coupon::core::theory
