// Tests for the optimizers and the logistic loss/gradient kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include "data/synthetic.hpp"
#include "linalg/vector_ops.hpp"
#include "opt/opt.hpp"
#include "stats/rng.hpp"
#include "util/assert.hpp"

namespace coupon::opt {
namespace {

data::Dataset tiny_dataset() {
  data::Dataset d;
  d.x = {{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.5}, {0.5, -1.0}};
  d.y = {1.0, -1.0, 1.0, -1.0};
  return d;
}

/// A dataset from the paper's model whose example count is a multiple of
/// neither the row kernels' four-row pass nor the 64-example block, with
/// a random query point.
struct OddShape {
  data::Dataset dataset;
  std::vector<double> w;
};

OddShape odd_shape(std::size_t p, std::uint64_t seed) {
  stats::Rng rng(seed);
  data::SyntheticConfig config;
  config.num_features = p;
  OddShape shape{data::generate_logreg(203, config, rng).dataset,
                 std::vector<double>(p)};
  for (auto& v : shape.w) {
    v = rng.normal();
  }
  return shape;
}

constexpr std::size_t kOddFeatureCounts[] = {8, 20, 37, 100};

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// --- numerics ------------------------------------------------------------------

TEST(Sigmoid, MatchesClosedForm) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(2.0), 1.0 / (1.0 + std::exp(-2.0)), 1e-15);
  EXPECT_NEAR(sigmoid(-2.0), 1.0 - sigmoid(2.0), 1e-15);
}

TEST(Sigmoid, StableAtExtremes) {
  EXPECT_NEAR(sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-1000.0), 0.0, 1e-12);
  EXPECT_FALSE(std::isnan(sigmoid(710.0)));
  EXPECT_FALSE(std::isnan(sigmoid(-710.0)));
}

TEST(Log1pExp, StableAtExtremes) {
  EXPECT_NEAR(log1p_exp(0.0), std::log(2.0), 1e-15);
  EXPECT_NEAR(log1p_exp(1000.0), 1000.0, 1e-9);
  EXPECT_NEAR(log1p_exp(-1000.0), 0.0, 1e-12);
}

// --- gradients ------------------------------------------------------------------

TEST(LogisticGradient, MatchesFiniteDifferences) {
  const auto d = tiny_dataset();
  const std::vector<double> w = {0.3, -0.7};
  std::vector<double> grad(2);
  logistic_gradient(d, w, grad);

  const double eps = 1e-6;
  for (std::size_t c = 0; c < 2; ++c) {
    std::vector<double> wp = w, wm = w;
    wp[c] += eps;
    wm[c] -= eps;
    const double fd =
        (logistic_loss(d, wp) - logistic_loss(d, wm)) / (2.0 * eps);
    EXPECT_NEAR(grad[c], fd, 1e-8);
  }
}

TEST(PartialGradientSum, SumOfPartialsEqualsFullTimesM) {
  stats::Rng rng(3);
  data::SyntheticConfig config;
  config.num_features = 8;
  const auto prob = data::generate_logreg(25, config, rng);
  std::vector<double> w(8);
  for (auto& v : w) {
    v = rng.normal();
  }
  std::vector<double> full(8), sum(8, 0.0), one(8);
  logistic_gradient(prob.dataset, w, full);
  for (std::size_t j = 0; j < 25; ++j) {
    partial_gradient(prob.dataset, j, w, one);
    linalg::axpy(1.0, one, sum);
  }
  linalg::scal(1.0 / 25.0, sum);
  EXPECT_LT(linalg::max_abs_diff(full, sum), 1e-12);
}

TEST(PartialGradientSum, LogisticGradientMatchesIndexFormBitwise) {
  for (const std::size_t p : kOddFeatureCounts) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const OddShape shape = odd_shape(p, 70 + p);
    const std::size_t m = shape.dataset.num_examples();
    std::vector<std::size_t> all(m);
    std::iota(all.begin(), all.end(), std::size_t{0});
    std::vector<double> index_form(p);
    partial_gradient_sum(shape.dataset, all, shape.w, index_form);
    linalg::scal(1.0 / static_cast<double>(m), index_form);
    std::vector<double> full(p);
    logistic_gradient(shape.dataset, shape.w, full);
    EXPECT_TRUE(same_bits(full, index_form));
  }
}

TEST(PartialGradientSum, RangeFormMatchesIndexFormBitwise) {
  for (const std::size_t p : kOddFeatureCounts) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const OddShape shape = odd_shape(p, 80 + p);
    // A range that starts mid-block and spans several blocks.
    const std::size_t first = 5;
    const std::size_t count = 150;
    std::vector<std::size_t> indices(count);
    std::iota(indices.begin(), indices.end(), first);
    std::vector<double> index_form(p, 0.25);
    std::vector<double> range_form(p, 0.25);
    partial_gradient_sum(shape.dataset, indices, shape.w, index_form,
                         /*accumulate=*/true);
    partial_gradient_range(shape.dataset, first, count, shape.w, range_form,
                           /*accumulate=*/true);
    EXPECT_TRUE(same_bits(range_form, index_form));
  }
}

TEST(PartialGradientSum, AccumulateFlagAdds) {
  const auto d = tiny_dataset();
  const std::vector<double> w = {0.1, 0.2};
  const std::vector<std::size_t> idx = {0, 2};
  std::vector<double> a(2), b(2, 0.0);
  partial_gradient_sum(d, idx, w, a, /*accumulate=*/false);
  partial_gradient_sum(d, idx, w, b, /*accumulate=*/true);
  partial_gradient_sum(d, idx, w, b, /*accumulate=*/true);
  EXPECT_NEAR(b[0], 2.0 * a[0], 1e-14);
  EXPECT_NEAR(b[1], 2.0 * a[1], 1e-14);
}

TEST(PartialGradientSum, EmptyIndexSetGivesZero) {
  const auto d = tiny_dataset();
  const std::vector<double> w = {1.0, 1.0};
  std::vector<double> out = {5.0, 5.0};
  partial_gradient_sum(d, {}, w, out, /*accumulate=*/false);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
}

TEST(LogisticLoss, MatchesOnePassLoopBitwise) {
  for (const std::size_t p : kOddFeatureCounts) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const OddShape shape = odd_shape(p, 90 + p);
    const data::Dataset& d = shape.dataset;
    // The reference: one pass, each example's dot then its log1p_exp.
    double total = 0.0;
    for (std::size_t j = 0; j < d.num_examples(); ++j) {
      const double margin = d.y[j] * linalg::dot(d.x.row(j), shape.w);
      total += log1p_exp(-margin);
    }
    const double reference = total / static_cast<double>(d.num_examples());
    const double loss = logistic_loss(d, shape.w);
    EXPECT_EQ(std::memcmp(&loss, &reference, sizeof(double)), 0)
        << loss << " vs " << reference;
  }
}

TEST(Accuracy, PerfectAndWorstCase) {
  data::Dataset d;
  d.x = {{1.0}, {-1.0}};
  d.y = {1.0, -1.0};
  const std::vector<double> w_good = {1.0};
  const std::vector<double> w_bad = {-1.0};
  EXPECT_DOUBLE_EQ(accuracy(d, w_good), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(d, w_bad), 0.0);
}

// --- schedules ------------------------------------------------------------------

TEST(Schedule, ConstantIsFlat) {
  const auto s = LearningRateSchedule::constant(0.5);
  EXPECT_DOUBLE_EQ(s.at(0), 0.5);
  EXPECT_DOUBLE_EQ(s.at(1000), 0.5);
}

TEST(Schedule, InverseTimeDecays) {
  const auto s = LearningRateSchedule::inverse_time(1.0, 0.5);
  EXPECT_DOUBLE_EQ(s.at(0), 1.0);
  EXPECT_DOUBLE_EQ(s.at(2), 0.5);
  EXPECT_GT(s.at(10), 0.0);
  EXPECT_LT(s.at(10), s.at(9));
}

TEST(Schedule, RejectsBadParameters) {
  EXPECT_THROW(LearningRateSchedule::constant(0.0), coupon::AssertionError);
  EXPECT_THROW(LearningRateSchedule::inverse_time(1.0, -1.0),
               coupon::AssertionError);
}

// --- optimizers -----------------------------------------------------------------

TEST(GradientDescent, SingleStepIsWMinusMuGrad) {
  GradientDescent gd(2, LearningRateSchedule::constant(0.1));
  const std::vector<double> grad = {1.0, -2.0};
  gd.apply_gradient(grad);
  EXPECT_DOUBLE_EQ(gd.weights()[0], -0.1);
  EXPECT_DOUBLE_EQ(gd.weights()[1], 0.2);
  EXPECT_EQ(gd.iteration(), 1u);
}

TEST(GradientDescent, QueryPointIsCurrentIterate) {
  GradientDescent gd(2, LearningRateSchedule::constant(0.1));
  EXPECT_EQ(gd.query_point().data(), gd.weights().data());
}

TEST(NesterovGradient, FirstStepMatchesPlainGd) {
  // beta_0 = 0, so the first Nesterov step equals a GD step from w_0 = 0.
  NesterovGradient nag(2, LearningRateSchedule::constant(0.1));
  GradientDescent gd(2, LearningRateSchedule::constant(0.1));
  const std::vector<double> grad = {1.0, 2.0};
  nag.apply_gradient(grad);
  gd.apply_gradient(grad);
  EXPECT_DOUBLE_EQ(nag.weights()[0], gd.weights()[0]);
  EXPECT_DOUBLE_EQ(nag.weights()[1], gd.weights()[1]);
  // Lookahead v_1 = w_1 + 0*(w_1 - w_0) = w_1 for t=0... beta_1 = 1/4 at
  // the next step; just confirm the query point moved with the iterate.
  EXPECT_DOUBLE_EQ(nag.query_point()[0], nag.weights()[0]);
}

TEST(NesterovGradient, LookaheadDiffersAfterTwoSteps) {
  NesterovGradient nag(1, LearningRateSchedule::constant(0.1));
  const std::vector<double> g = {1.0};
  nag.apply_gradient(g);
  nag.apply_gradient(g);
  // w_2 = v_1 - 0.1, v_2 = w_2 + (1/4)(w_2 - w_1) != w_2.
  EXPECT_NE(nag.query_point()[0], nag.weights()[0]);
}

TEST(Train, GdConvergesOnLogisticProblem) {
  stats::Rng rng(5);
  data::SyntheticConfig config;
  config.num_features = 10;
  const auto prob = data::generate_logreg(200, config, rng);
  GradientDescent gd(10, LearningRateSchedule::constant(1.0));
  const auto oracle = make_logistic_oracle(prob.dataset);
  std::function<double(std::span<const double>)> loss =
      [&](std::span<const double> w) {
        return logistic_loss(prob.dataset, w);
      };
  const auto result = train(gd, oracle, 50, &loss);
  ASSERT_EQ(result.loss_history.size(), 50u);
  EXPECT_LT(result.loss_history.back(), result.loss_history.front());
  // Loss is convex: the trace should be (weakly) decreasing throughout
  // at this conservative step size.
  for (std::size_t t = 1; t < result.loss_history.size(); ++t) {
    EXPECT_LE(result.loss_history[t], result.loss_history[t - 1] + 1e-12);
  }
}

TEST(Train, NesterovReachesLowerLossThanGdInFewIterations) {
  stats::Rng rng(7);
  data::SyntheticConfig config;
  config.num_features = 10;
  const auto prob = data::generate_logreg(200, config, rng);
  const auto oracle = make_logistic_oracle(prob.dataset);

  GradientDescent gd(10, LearningRateSchedule::constant(0.5));
  NesterovGradient nag(10, LearningRateSchedule::constant(0.5));
  const auto r_gd = train(gd, oracle, 40);
  const auto r_nag = train(nag, oracle, 40);
  EXPECT_LE(logistic_loss(prob.dataset, r_nag.weights),
            logistic_loss(prob.dataset, r_gd.weights) + 1e-9);
}

TEST(Train, ZeroIterationsReturnsInitialWeights) {
  GradientDescent gd(3, LearningRateSchedule::constant(0.1));
  const auto oracle = [](std::span<const double>, std::span<double> g) {
    linalg::fill(g, 1.0);
  };
  const auto result = train(gd, oracle, 0);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.weights, std::vector<double>(3, 0.0));
}

TEST(Optimizer, GradientDimensionMismatchAsserts) {
  GradientDescent gd(3, LearningRateSchedule::constant(0.1));
  const std::vector<double> bad = {1.0};
  EXPECT_THROW(gd.apply_gradient(bad), coupon::AssertionError);
}


// --- squared loss ----------------------------------------------------------------

TEST(SquaredLoss, GradientMatchesFiniteDifferences) {
  stats::Rng rng(11);
  data::SyntheticConfig config;
  config.num_features = 6;
  const auto prob = data::generate_linreg(30, config, 0.3, rng);
  std::vector<double> w(6);
  for (auto& v : w) {
    v = rng.normal();
  }
  std::vector<double> grad(6);
  squared_gradient(prob.dataset, w, grad);
  const double eps = 1e-6;
  for (std::size_t c = 0; c < 6; ++c) {
    std::vector<double> wp = w, wm = w;
    wp[c] += eps;
    wm[c] -= eps;
    const double fd =
        (squared_loss(prob.dataset, wp) - squared_loss(prob.dataset, wm)) /
        (2.0 * eps);
    EXPECT_NEAR(grad[c], fd, 1e-6);
  }
}

TEST(SquaredLoss, ZeroAtNoiselessOptimum) {
  stats::Rng rng(13);
  data::SyntheticConfig config;
  config.num_features = 4;
  const auto prob = data::generate_linreg(20, config, 0.0, rng);
  EXPECT_NEAR(squared_loss(prob.dataset, prob.w_star), 0.0, 1e-20);
  std::vector<double> grad(4);
  squared_gradient(prob.dataset, prob.w_star, grad);
  EXPECT_LT(linalg::max_abs(grad), 1e-10);
}

TEST(SquaredLoss, GdRecoversNoiselessWeights) {
  stats::Rng rng(17);
  data::SyntheticConfig config;
  config.num_features = 5;
  const auto prob = data::generate_linreg(100, config, 0.0, rng);
  GradientDescent gd(5, LearningRateSchedule::constant(0.2));
  const GradientOracle oracle = [&](std::span<const double> w,
                                    std::span<double> g) {
    squared_gradient(prob.dataset, w, g);
  };
  const auto result = train(gd, oracle, 200);
  EXPECT_LT(linalg::max_abs_diff(result.weights, prob.w_star), 1e-3);
}

TEST(SquaredLoss, PartialSumAccumulates) {
  stats::Rng rng(19);
  data::SyntheticConfig config;
  config.num_features = 3;
  const auto prob = data::generate_linreg(8, config, 0.1, rng);
  const std::vector<double> w = {0.5, -0.5, 1.0};
  const std::vector<std::size_t> idx = {1, 4};
  std::vector<double> once(3), twice(3, 0.0);
  squared_partial_gradient_sum(prob.dataset, idx, w, once, false);
  squared_partial_gradient_sum(prob.dataset, idx, w, twice, true);
  squared_partial_gradient_sum(prob.dataset, idx, w, twice, true);
  EXPECT_NEAR(twice[0], 2.0 * once[0], 1e-13);
  EXPECT_NEAR(twice[2], 2.0 * once[2], 1e-13);
}

// --- heavy ball and AdaGrad -------------------------------------------------------

TEST(HeavyBall, ZeroMomentumMatchesPlainGd) {
  HeavyBallGradient hb(2, LearningRateSchedule::constant(0.1), 0.0);
  GradientDescent gd(2, LearningRateSchedule::constant(0.1));
  const std::vector<double> g = {1.0, -3.0};
  for (int t = 0; t < 4; ++t) {
    hb.apply_gradient(g);
    gd.apply_gradient(g);
  }
  EXPECT_DOUBLE_EQ(hb.weights()[0], gd.weights()[0]);
  EXPECT_DOUBLE_EQ(hb.weights()[1], gd.weights()[1]);
}

TEST(HeavyBall, MomentumAccumulatesVelocity) {
  HeavyBallGradient hb(1, LearningRateSchedule::constant(0.1), 0.5);
  const std::vector<double> g = {1.0};
  hb.apply_gradient(g);  // v = -0.1, w = -0.1
  hb.apply_gradient(g);  // v = -0.15, w = -0.25
  EXPECT_NEAR(hb.weights()[0], -0.25, 1e-15);
  EXPECT_EQ(hb.iteration(), 2u);
}

TEST(HeavyBall, RejectsInvalidMomentum) {
  EXPECT_THROW(HeavyBallGradient(2, LearningRateSchedule::constant(0.1), 1.0),
               coupon::AssertionError);
  EXPECT_THROW(
      HeavyBallGradient(2, LearningRateSchedule::constant(0.1), -0.1),
      coupon::AssertionError);
}

TEST(AdaGrad, FirstStepIsNormalizedGradient) {
  AdaGrad ada(2, LearningRateSchedule::constant(0.5), 1e-12);
  const std::vector<double> g = {4.0, -0.25};
  ada.apply_gradient(g);
  // w -= mu * g / (|g| + eps) elementwise => both coords move by ~mu.
  EXPECT_NEAR(ada.weights()[0], -0.5, 1e-9);
  EXPECT_NEAR(ada.weights()[1], 0.5, 1e-9);
}

TEST(AdaGrad, StepsShrinkOnRepeatedGradients) {
  AdaGrad ada(1, LearningRateSchedule::constant(1.0));
  const std::vector<double> g = {2.0};
  ada.apply_gradient(g);
  const double step1 = -ada.weights()[0];
  ada.apply_gradient(g);
  const double step2 = -ada.weights()[0] - step1;
  EXPECT_GT(step1, step2);
  EXPECT_GT(step2, 0.0);
}

TEST(AdaGrad, ConvergesOnLogisticProblem) {
  stats::Rng rng(23);
  data::SyntheticConfig config;
  config.num_features = 8;
  const auto prob = data::generate_logreg(150, config, rng);
  AdaGrad ada(8, LearningRateSchedule::constant(0.5));
  const auto oracle = make_logistic_oracle(prob.dataset);
  const auto result = train(ada, oracle, 80);
  EXPECT_LT(logistic_loss(prob.dataset, result.weights),
            logistic_loss(prob.dataset, std::vector<double>(8, 0.0)));
}

}  // namespace
}  // namespace coupon::opt
