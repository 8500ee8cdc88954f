#include "core/gc_cyclic.hpp"

#include <algorithm>

#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

/// Per-unit slot collector with a distinct-worker readiness rule. The
/// first received copy of each unit is slotted by unit index; readiness
/// flips when n - s distinct workers have reported (the gradient-coding
/// recovery guarantee: any such set covers all m units under the cyclic
/// placement). Decode sums slots in unit order 0..m-1 — bitwise-equal to
/// the unit-ordered serial gradient sum regardless of arrival order.
class GcCyclicCollector final : public Collector {
 public:
  GcCyclicCollector(std::size_t num_workers, std::size_t num_units,
                    std::size_t recovery_threshold)
      : recovery_threshold_(recovery_threshold),
        seen_worker_(num_workers, false),
        slots_(num_units),
        covered_(num_units, false) {}

  bool offer(std::size_t worker, std::span<const std::int64_t> meta,
             std::span<const double> payload) override {
    if (ready_) {
      return false;
    }
    COUPON_ASSERT(worker < seen_worker_.size());
    // The full r-unit message crosses the wire whether or not the master
    // already holds some of its units (Definition 3 counts received size).
    note_offer(static_cast<double>(meta.size()));
    if (seen_worker_[worker]) {
      return false;  // duplicate delivery of the same worker's message
    }
    seen_worker_[worker] = true;
    ++distinct_workers_;
    const bool has_payload = !payload.empty();
    std::size_t dim = 0;
    if (has_payload) {
      COUPON_ASSERT_MSG(payload.size() % meta.size() == 0,
                        "payload not a whole number of gradients");
      dim = payload.size() / meta.size();
    }
    for (std::size_t k = 0; k < meta.size(); ++k) {
      const auto unit = static_cast<std::size_t>(meta[k]);
      COUPON_ASSERT(unit < covered_.size());
      if (covered_[unit]) {
        continue;  // another worker already supplied this unit's gradient
      }
      covered_[unit] = true;
      ++num_covered_;
      if (has_payload) {
        const auto slice = payload.subspan(k * dim, dim);
        slots_[unit].assign(slice.begin(), slice.end());
      }
    }
    ready_ = distinct_workers_ >= recovery_threshold_;
    // The cyclic-placement guarantee: n - s distinct windows of width
    // s + 1 always cover all m = n units.
    COUPON_ASSERT_MSG(!ready_ || num_covered_ == covered_.size(),
                      "cyclic placement failed to cover at threshold");
    return true;
  }

  bool ready() const override { return ready_; }

  void decode_sum(std::span<double> out) const override {
    COUPON_ASSERT_MSG(ready_, "decode before n - s workers reported");
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
    for (std::size_t u = 0; u < slots_.size(); ++u) {
      if (!covered_[u]) {
        continue;
      }
      COUPON_ASSERT_MSG(!slots_[u].empty(), "partial decode without payloads");
      linalg::axpy(1.0, slots_[u], out);
      ++units;
    }
    return units;
  }

 private:
  void do_reset() override {
    for (auto& slot : slots_) {
      slot.clear();
    }
    std::fill(seen_worker_.begin(), seen_worker_.end(), false);
    std::fill(covered_.begin(), covered_.end(), false);
    distinct_workers_ = 0;
    num_covered_ = 0;
    ready_ = false;
  }

  std::size_t recovery_threshold_;
  std::vector<bool> seen_worker_;
  std::vector<std::vector<double>> slots_;
  std::vector<bool> covered_;
  std::size_t distinct_workers_ = 0;
  std::size_t num_covered_ = 0;
  bool ready_ = false;
};

data::Placement cyclic_windows(std::size_t num_workers, std::size_t load) {
  std::vector<std::vector<std::size_t>> sets(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    auto& g = sets[i];
    g.reserve(load);
    for (std::size_t k = 0; k < load; ++k) {
      g.push_back((i + k) % num_workers);
    }
  }
  return data::Placement(num_workers, std::move(sets));
}

}  // namespace

GcCyclicScheme::GcCyclicScheme(std::size_t num_workers, std::size_t load)
    : Scheme(cyclic_windows(num_workers, load)), load_(load) {
  COUPON_ASSERT_MSG(num_workers >= 1, "need at least one worker");
  COUPON_ASSERT_MSG(load >= 1 && load <= num_workers,
                    "load r must be in [1, n]");
}

comm::Message GcCyclicScheme::encode(std::size_t worker,
                                     const UnitGradientSource& source,
                                     std::span<const double> w) const {
  comm::Message msg;
  msg.tag = comm::kTagGradient;
  encode_into(worker, source, w, msg);
  return msg;
}

void GcCyclicScheme::encode_into(std::size_t worker,
                                 const UnitGradientSource& source,
                                 std::span<const double> w,
                                 comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  const auto& units = placement_.worker(worker);
  const std::size_t dim = source.dim();
  out.meta.clear();
  out.meta.reserve(units.size());
  out.payload.assign(units.size() * dim, 0.0);
  for (std::size_t k = 0; k < units.size(); ++k) {
    out.meta.push_back(static_cast<std::int64_t>(units[k]));
    source.unit_gradient(units[k], w,
                         std::span<double>(out.payload).subspan(k * dim, dim));
  }
}

std::vector<std::int64_t> GcCyclicScheme::message_meta(
    std::size_t worker) const {
  COUPON_ASSERT(worker < num_workers());
  const auto& units = placement_.worker(worker);
  std::vector<std::int64_t> meta;
  meta.reserve(units.size());
  for (std::size_t u : units) {
    meta.push_back(static_cast<std::int64_t>(u));
  }
  return meta;
}

std::unique_ptr<Collector> GcCyclicScheme::make_collector() const {
  return std::make_unique<GcCyclicCollector>(
      num_workers(), num_units(), num_workers() - stragglers_tolerated());
}

}  // namespace coupon::core
