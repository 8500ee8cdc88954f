#include "core/bcc.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/theory.hpp"
#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

/// Coverage collector over batches. Kept payloads are stored per batch
/// and summed in batch order at decode time, so the decoded gradient is
/// bit-identical regardless of message arrival order (the threaded
/// runtime's arrival order depends on OS scheduling).
class BccCollector final : public Collector {
 public:
  /// `batch_units[b]` is the number of units in batch b (the last batch
  /// may be short); needed to report how many units a partial decode
  /// covers.
  explicit BccCollector(std::vector<std::size_t> batch_units)
      : batch_units_(std::move(batch_units)),
        slots_(batch_units_.size()),
        seen_(batch_units_.size(), false) {}

  bool offer(std::size_t worker, std::span<const std::int64_t> meta,
             std::span<const double> payload) override {
    (void)worker;
    if (ready_) {
      return false;
    }
    note_offer(1.0);
    COUPON_ASSERT_MSG(meta.size() == 1, "BCC message meta must be {batch}");
    const auto batch = static_cast<std::size_t>(meta[0]);
    COUPON_ASSERT(batch < slots_.size());
    if (seen_[batch]) {
      return false;  // duplicate coupon: the master discards it
    }
    seen_[batch] = true;
    ++covered_;
    if (!payload.empty()) {
      slots_[batch].assign(payload.begin(), payload.end());
    }
    ready_ = covered_ == slots_.size();
    return true;
  }

  bool ready() const override { return ready_; }

  void decode_sum(std::span<double> out) const override {
    COUPON_ASSERT_MSG(ready_, "decode before coverage");
    linalg::fill(out, 0.0);
    for (const auto& slot : slots_) {
      COUPON_ASSERT_MSG(!slot.empty(), "decode without payloads");
      COUPON_ASSERT(slot.size() == out.size());
      linalg::axpy(1.0, slot, out);
    }
  }

  bool supports_partial_decode() const override { return true; }

  std::size_t decode_partial_sum(std::span<double> out) const override {
    linalg::fill(out, 0.0);
    std::size_t units = 0;
    for (std::size_t b = 0; b < slots_.size(); ++b) {
      if (!seen_[b]) {
        continue;
      }
      COUPON_ASSERT_MSG(!slots_[b].empty(), "partial decode without payloads");
      COUPON_ASSERT(slots_[b].size() == out.size());
      linalg::axpy(1.0, slots_[b], out);
      units += batch_units_[b];
    }
    return units;
  }

 private:
  void do_reset() override {
    for (auto& slot : slots_) {
      slot.clear();
    }
    std::fill(seen_.begin(), seen_.end(), false);
    covered_ = 0;
    ready_ = false;
  }

  std::vector<std::size_t> batch_units_;
  std::vector<std::vector<double>> slots_;
  std::vector<bool> seen_;
  std::size_t covered_ = 0;
  bool ready_ = false;
};

/// The B = ceil(m/r) batches {b r, ..., min(b r + r, m) - 1} in batch
/// order (data::BatchPartition's slices), and each worker's draw as its
/// set index: every worker that picks batch b shares one copy of it.
data::Placement draw_placement(std::size_t num_workers, std::size_t num_units,
                               std::size_t load, bool seed_first_batches,
                               stats::Rng& rng) {
  COUPON_ASSERT_MSG(num_units > 0 && load > 0,
                    "m=" << num_units << " r=" << load);
  const std::size_t batches = (num_units - 1) / load + 1;
  COUPON_ASSERT_MSG(num_workers >= batches,
                    "need n >= ceil(m/r) workers to cover all batches");
  std::vector<std::vector<std::size_t>> sets(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    sets[b].resize(std::min(load, num_units - b * load));
    std::iota(sets[b].begin(), sets[b].end(), b * load);
  }
  std::vector<std::size_t> batch_choice(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    if (seed_first_batches && i < batches) {
      batch_choice[i] = i;
    } else {
      batch_choice[i] = static_cast<std::size_t>(rng.uniform_int(batches));
    }
  }
  return data::Placement(num_units, std::move(sets), std::move(batch_choice));
}

}  // namespace

BccScheme::BccScheme(std::size_t num_workers, std::size_t num_units,
                     std::size_t load, bool seed_first_batches,
                     stats::Rng& rng)
    : Scheme(draw_placement(num_workers, num_units, load, seed_first_batches,
                            rng)) {}

comm::Message BccScheme::encode(std::size_t worker,
                                const UnitGradientSource& source,
                                std::span<const double> w) const {
  comm::Message msg;
  msg.tag = comm::kTagGradient;
  encode_into(worker, source, w, msg);
  return msg;
}

void BccScheme::encode_into(std::size_t worker,
                            const UnitGradientSource& source,
                            std::span<const double> w,
                            comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  out.meta.assign(1, static_cast<std::int64_t>(batch_of_worker(worker)));
  out.payload.assign(source.dim(), 0.0);
  source.accumulate_units_gradient(placement_.worker(worker), w,
                                   out.payload);
}

std::vector<std::int64_t> BccScheme::message_meta(std::size_t worker) const {
  return {static_cast<std::int64_t>(batch_of_worker(worker))};
}

std::unique_ptr<Collector> BccScheme::make_collector() const {
  std::vector<std::size_t> batch_units(num_batches());
  for (std::size_t b = 0; b < batch_units.size(); ++b) {
    batch_units[b] = placement_.set(b).size();
  }
  return std::make_unique<BccCollector>(std::move(batch_units));
}

std::optional<double> BccScheme::expected_recovery_threshold() const {
  const auto b = static_cast<double>(num_batches());
  return b * theory::harmonic(num_batches());
}

std::size_t BccScheme::batch_of_worker(std::size_t worker) const {
  COUPON_ASSERT(worker < num_workers());
  return placement_.set_of_worker(worker);
}

double BccScheme::coverage_failure_probability(std::size_t num_workers,
                                               std::size_t num_batches) {
  COUPON_ASSERT(num_batches > 0);
  // P(some batch uncovered) by inclusion-exclusion:
  //   sum_{k=1}^{B-1} (-1)^{k+1} C(B,k) (1 - k/B)^n.
  const double b = static_cast<double>(num_batches);
  const double n = static_cast<double>(num_workers);
  double prob = 0.0;
  double log_binom = 0.0;  // log C(B, k), updated incrementally
  for (std::size_t k = 1; k < num_batches; ++k) {
    log_binom += std::log(b - static_cast<double>(k) + 1.0) -
                 std::log(static_cast<double>(k));
    const double term =
        std::exp(log_binom + n * std::log1p(-static_cast<double>(k) / b));
    prob += (k % 2 == 1) ? term : -term;
  }
  return std::clamp(prob, 0.0, 1.0);
}

}  // namespace coupon::core
