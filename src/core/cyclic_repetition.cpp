#include "core/cyclic_repetition.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/solve.hpp"
#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

/// Keeps the first n - s distinct workers' messages, then decodes via the
/// scheme's coding matrix. Kept payloads live in fixed slots (paired with
/// `workers_` by index) and all decode temporaries are reusable scratch,
/// so a reset-and-reused collector allocates nothing once warm.
class CrCollector final : public Collector {
 public:
  CrCollector(const CyclicRepetitionScheme& scheme, std::size_t needed)
      : scheme_(scheme), needed_(needed), slots_(needed) {
    workers_.reserve(needed);
  }

  bool offer(std::size_t worker, std::span<const std::int64_t> meta,
             std::span<const double> payload) override {
    (void)meta;
    if (ready_) {
      return false;
    }
    note_offer(1.0);
    for (std::size_t w : workers_) {
      if (w == worker) {
        return false;  // duplicate delivery
      }
    }
    workers_.push_back(worker);
    if (!payload.empty()) {
      slots_[workers_.size() - 1].assign(payload.begin(), payload.end());
      ++filled_;
    }
    ready_ = workers_.size() >= needed_;
    return true;
  }

  bool ready() const override { return ready_; }

  void decode_sum(std::span<double> out) const override {
    COUPON_ASSERT_MSG(ready_, "decode before n - s workers reported");
    COUPON_ASSERT_MSG(filled_ == workers_.size(), "decode without payloads");
    // Sort the kept set by worker index so the decode (coefficient solve
    // and the combination order) is independent of arrival order.
    perm_.resize(workers_.size());
    for (std::size_t k = 0; k < perm_.size(); ++k) {
      perm_[k] = k;
    }
    std::sort(perm_.begin(), perm_.end(),
              [this](std::size_t a, std::size_t b) {
                return workers_[a] < workers_[b];
              });
    sorted_workers_.resize(workers_.size());
    for (std::size_t k = 0; k < perm_.size(); ++k) {
      sorted_workers_[k] = workers_[perm_[k]];
    }
    const bool solved =
        scheme_.decoding_coefficients_into(sorted_workers_, ws_);
    COUPON_ASSERT_MSG(solved, "CR decode solve failed");
    linalg::fill(out, 0.0);
    for (std::size_t k = 0; k < perm_.size(); ++k) {
      const auto& payload = slots_[perm_[k]];
      COUPON_ASSERT(payload.size() == out.size());
      linalg::axpy(ws_.coeffs[k], payload, out);
    }
  }

 private:
  void do_reset() override {
    workers_.clear();
    filled_ = 0;
    ready_ = false;
  }

  const CyclicRepetitionScheme& scheme_;
  std::size_t needed_;
  bool ready_ = false;
  std::size_t filled_ = 0;
  std::vector<std::size_t> workers_;
  std::vector<std::vector<double>> slots_;  // slots_[k] pairs workers_[k]
  mutable std::vector<std::size_t> perm_;
  mutable std::vector<std::size_t> sorted_workers_;
  mutable CrDecodeWorkspace ws_;
};

data::Placement cyclic_placement(std::size_t n, std::size_t r) {
  std::vector<std::vector<std::size_t>> sets(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& g = sets[i];
    g.reserve(r);
    for (std::size_t t = 0; t < r; ++t) {
      g.push_back((i + t) % n);
    }
  }
  return data::Placement(n, std::move(sets));
}

/// One attempt at Tandon et al.'s Algorithm 2. Returns nullopt when an
/// inner s x s system is singular (probability-zero event; caller redraws).
std::optional<linalg::Matrix> try_build_coding_matrix(std::size_t n,
                                                      std::size_t r,
                                                      stats::Rng& rng) {
  const std::size_t s = r - 1;
  if (s == 0) {
    return linalg::Matrix::identity(n);  // r = 1 degenerates to uncoded
  }
  // H: s x n i.i.d. normal, then force every row sum to zero => H 1 = 0.
  linalg::Matrix h(s, n);
  for (std::size_t i = 0; i < s; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j + 1 < n; ++j) {
      h(i, j) = rng.normal();
      row_sum += h(i, j);
    }
    h(i, n - 1) = -row_sum;
  }

  linalg::Matrix b(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    // Support: columns (i + t) mod n for t = 0..s; leading coefficient 1.
    // Remaining coefficients x solve  H_sub x = -h_i  so that row_i(B) is
    // in null(H).
    linalg::Matrix h_sub(s, s);
    std::vector<double> rhs(s);
    for (std::size_t row = 0; row < s; ++row) {
      rhs[row] = -h(row, i);
      for (std::size_t t = 0; t < s; ++t) {
        h_sub(row, t) = h(row, (i + 1 + t) % n);
      }
    }
    auto x = linalg::solve(h_sub, rhs);
    if (!x) {
      return std::nullopt;
    }
    b(i, i) = 1.0;
    for (std::size_t t = 0; t < s; ++t) {
      b(i, (i + 1 + t) % n) = (*x)[t];
    }
  }
  return b;
}

}  // namespace

CyclicRepetitionScheme::CyclicRepetitionScheme(std::size_t num_workers,
                                               std::size_t load,
                                               stats::Rng& rng)
    : Scheme(cyclic_placement(num_workers, load)), load_(load) {
  COUPON_ASSERT_MSG(load >= 1 && load <= num_workers,
                    "CR load must satisfy 1 <= r <= n");
  constexpr int kMaxTries = 16;
  for (int attempt = 0; attempt < kMaxTries; ++attempt) {
    auto b = try_build_coding_matrix(num_workers, load, rng);
    if (b) {
      b_ = std::move(*b);
      return;
    }
  }
  COUPON_ASSERT_MSG(false, "CR coding matrix construction failed "
                               << kMaxTries << " times (vanishing-probability "
                               << "event); check the RNG");
}

comm::Message CyclicRepetitionScheme::encode(std::size_t worker,
                                             const UnitGradientSource& source,
                                             std::span<const double> w) const {
  comm::Message msg;
  msg.tag = comm::kTagGradient;
  encode_into(worker, source, w, msg);
  return msg;
}

void CyclicRepetitionScheme::encode_into(std::size_t worker,
                                         const UnitGradientSource& source,
                                         std::span<const double> w,
                                         comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  const std::size_t dim = source.dim();
  out.meta.assign(1, static_cast<std::int64_t>(worker));
  // The payload tail doubles as unit-gradient scratch (trimmed before
  // returning), so a warm encode allocates nothing. A caching source's
  // `unit_gradient_view` ignores the scratch and serves its own slab row.
  out.payload.assign(2 * dim, 0.0);
  const std::span<double> acc{out.payload.data(), dim};
  const std::span<double> scratch{out.payload.data() + dim, dim};
  for (std::size_t unit : placement_.worker(worker)) {
    const std::span<const double> g = source.unit_gradient_view(unit, w, scratch);
    linalg::axpy(b_(worker, unit), g, acc);
  }
  out.payload.resize(dim);
}

std::unique_ptr<Collector> CyclicRepetitionScheme::make_collector() const {
  return std::make_unique<CrCollector>(*this,
                                       num_workers() - stragglers_tolerated());
}

std::optional<std::vector<double>> CyclicRepetitionScheme::decoding_coefficients(
    std::span<const std::size_t> workers) const {
  CrDecodeWorkspace ws;
  if (!decoding_coefficients_into(workers, ws)) {
    return std::nullopt;
  }
  return std::move(ws.coeffs);
}

bool CyclicRepetitionScheme::decoding_coefficients_into(
    std::span<const std::size_t> workers, CrDecodeWorkspace& ws) const {
  const std::size_t n = num_workers();
  if (workers.size() < n - stragglers_tolerated()) {
    return false;
  }
  // Solve B_W^T a = 1: an n x |W| overdetermined system with an exact
  // solution by construction (1 is in the row space of B_W).
  ws.bwt.resize(n, workers.size());
  for (std::size_t k = 0; k < workers.size(); ++k) {
    COUPON_ASSERT(workers[k] < n);
    for (std::size_t j = 0; j < n; ++j) {
      ws.bwt(j, k) = b_(workers[k], j);
    }
  }
  ws.ones.assign(n, 1.0);
  ws.coeffs.resize(workers.size());
  return linalg::lstsq_into(ws.bwt, ws.ones, ws.coeffs, ws.lstsq);
}

}  // namespace coupon::core
