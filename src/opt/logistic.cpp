#include "opt/logistic.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::opt {

namespace {

/// Examples per gradient/loss block: the per-block scratch (margins,
/// coefficients) stays on the stack, so the passes allocate nothing.
constexpr std::size_t kBlock = 64;

}  // namespace

double sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

double log1p_exp(double z) {
  if (z > 0.0) {
    return z + std::log1p(std::exp(-z));
  }
  return std::log1p(std::exp(z));
}

double logistic_loss(const data::Dataset& dataset,
                     std::span<const double> w) {
  COUPON_ASSERT(w.size() == dataset.num_features());
  // The gradient's block shape (partial_gradient_range): a row-dot pass
  // over the block, then a log1p_exp pass summed in example order. Each
  // example's margin and slot in the running sum are unchanged, so the
  // bits are too.
  const std::size_t m = dataset.num_examples();
  const std::size_t p = dataset.num_features();
  const double* const xbase = dataset.x.data().data();
  double dots[kBlock];
  double total = 0.0;
  for (std::size_t base = 0; base < m; base += kBlock) {
    const std::size_t len = std::min(kBlock, m - base);
    linalg::dot_rows(xbase + base * p, len, p, w.data(), dots);
    for (std::size_t k = 0; k < len; ++k) {
      const double margin = dataset.y[base + k] * dots[k];
      total += log1p_exp(-margin);
    }
  }
  return total / static_cast<double>(m);
}

void logistic_gradient(const data::Dataset& dataset,
                       std::span<const double> w, std::span<double> grad) {
  partial_gradient_range(dataset, 0, dataset.num_examples(), w, grad);
  linalg::scal(1.0 / static_cast<double>(dataset.num_examples()), grad);
}

void partial_gradient_sum(const data::Dataset& dataset,
                          std::span<const std::size_t> indices,
                          std::span<const double> w, std::span<double> out,
                          bool accumulate) {
  COUPON_ASSERT(w.size() == dataset.num_features());
  COUPON_ASSERT(out.size() == dataset.num_features());
  if (!accumulate) {
    linalg::fill(out, 0.0);
  }
  // Two passes per block, in the original example order: first every
  // margin/coefficient (reads of w and x only), then the axpy
  // accumulation into `out`. Each example's dot, sigmoid, and slot in
  // the running sum are untouched, so the split changes no FP
  // association — it only separates the long-latency sigmoid chain from
  // the accumulation chain, which measures ~20% faster on the training
  // bench. The fixed-size block keeps the coefficient scratch on the
  // stack (this function must stay allocation-free; it sits on the
  // per-iteration encode path).
  // Row access goes through the matrix base pointer (public data() view)
  // rather than row(): at ~20ns per example the bounds branch per row()
  // call is measurable, and j is debug-checked here already.
  const std::size_t p = dataset.num_features();
  const double* const xbase = dataset.x.data().data();
  double coefs[kBlock];
  for (std::size_t base = 0; base < indices.size(); base += kBlock) {
    const std::size_t len = std::min(kBlock, indices.size() - base);
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t j = indices[base + k];
      COUPON_DCHECK(j < dataset.num_examples());
      const std::span<const double> row{xbase + j * p, p};
      const double margin = dataset.y[j] * linalg::dot(row, w);
      coefs[k] = -dataset.y[j] * sigmoid(-margin);
    }
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t j = indices[base + k];
      linalg::axpy(coefs[k], {xbase + j * p, p}, out);
    }
  }
}

void partial_gradient_range(const data::Dataset& dataset, std::size_t first,
                            std::size_t count, std::span<const double> w,
                            std::span<double> out, bool accumulate) {
  COUPON_ASSERT(w.size() == dataset.num_features());
  COUPON_ASSERT(out.size() == dataset.num_features());
  COUPON_ASSERT(first + count <= dataset.num_examples());
  if (!accumulate) {
    linalg::fill(out, 0.0);
  }
  // Same block structure (and the same FP chain) as the index form
  // above, with the coefficient pass further split in two: a row-dot
  // pass and a sigmoid pass over the stashed dot values; the axpy pass
  // then applies the whole block with the row kernel. Each example's
  // dot, sigmoid, and slot in the running sum are unchanged, so the
  // bits are too.
  const std::size_t p = dataset.num_features();
  const double* const xbase = dataset.x.data().data();
  const double* const y = dataset.y.data();
  double dots[kBlock];
  double coefs[kBlock];
  for (std::size_t base = 0; base < count; base += kBlock) {
    const std::size_t len = std::min(kBlock, count - base);
    const double* const xrow = xbase + (first + base) * p;
    linalg::dot_rows(xrow, len, p, w.data(), dots);
    for (std::size_t k = 0; k < len; ++k) {
      const double label = y[first + base + k];
      const double margin = label * dots[k];
      coefs[k] = -label * sigmoid(-margin);
    }
    linalg::axpy_rows(coefs, xrow, len, p, out.data());
  }
}

void partial_gradient(const data::Dataset& dataset, std::size_t j,
                      std::span<const double> w, std::span<double> out) {
  const std::size_t one[] = {j};
  partial_gradient_sum(dataset, one, w, out, /*accumulate=*/false);
}

double accuracy(const data::Dataset& dataset, std::span<const double> w) {
  COUPON_ASSERT(w.size() == dataset.num_features());
  const std::size_t m = dataset.num_examples();
  std::size_t correct = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const double score = linalg::dot(dataset.x.row(j), w);
    const double pred = score >= 0.0 ? 1.0 : -1.0;
    if (pred == dataset.y[j]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(m);
}

}  // namespace coupon::opt
