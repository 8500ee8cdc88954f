#include "core/simple_random.hpp"

#include <algorithm>

#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

/// Coverage collector over individual units. The first received gradient
/// for each unit is slotted by unit index and the decode sums slots in
/// unit order — deterministic under any arrival order (all copies of a
/// unit's gradient are bitwise identical anyway).
class SimpleRandomCollector final : public Collector {
 public:
  explicit SimpleRandomCollector(std::size_t num_units)
      : slots_(num_units), covered_(num_units, false) {}

  bool offer(std::size_t worker, std::span<const std::int64_t> meta,
             std::span<const double> payload) override {
    (void)worker;
    if (ready_) {
      return false;
    }
    // Every per-unit gradient the worker ships counts toward L, whether
    // or not the master already has that unit (Definition 3 counts
    // received message size, not kept size).
    note_offer(static_cast<double>(meta.size()));
    const bool has_payload = !payload.empty();
    std::size_t dim = 0;
    if (has_payload) {
      COUPON_ASSERT_MSG(payload.size() % meta.size() == 0,
                        "payload not a whole number of gradients");
      dim = payload.size() / meta.size();
    }
    bool kept_any = false;
    for (std::size_t k = 0; k < meta.size(); ++k) {
      const auto unit = static_cast<std::size_t>(meta[k]);
      COUPON_ASSERT(unit < covered_.size());
      if (covered_[unit]) {
        continue;  // duplicate partial gradient: discard
      }
      covered_[unit] = true;
      ++num_covered_;
      kept_any = true;
      if (has_payload) {
        const auto slice = payload.subspan(k * dim, dim);
        slots_[unit].assign(slice.begin(), slice.end());
      }
    }
    ready_ = num_covered_ == covered_.size();
    return kept_any;
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
    std::fill(covered_.begin(), covered_.end(), false);
    num_covered_ = 0;
    ready_ = false;
  }

  std::vector<std::vector<double>> slots_;
  std::vector<bool> covered_;
  std::size_t num_covered_ = 0;
  bool ready_ = false;
};

data::Placement draw_placement(std::size_t num_workers, std::size_t num_units,
                               std::size_t load, stats::Rng& rng) {
  std::vector<std::vector<std::size_t>> sets(num_workers);
  for (auto& g : sets) {
    g = rng.sample_without_replacement(num_units, load);
  }
  return data::Placement(num_units, std::move(sets));
}

}  // namespace

SimpleRandomScheme::SimpleRandomScheme(std::size_t num_workers,
                                       std::size_t num_units,
                                       std::size_t load, stats::Rng& rng)
    : Scheme(draw_placement(num_workers, num_units, load, rng)),
      load_(load) {
  COUPON_ASSERT_MSG(load >= 1 && load <= num_units,
                    "load r must be in [1, m]");
}

comm::Message SimpleRandomScheme::encode(std::size_t worker,
                                         const UnitGradientSource& source,
                                         std::span<const double> w) const {
  comm::Message msg;
  msg.tag = comm::kTagGradient;
  encode_into(worker, source, w, msg);
  return msg;
}

void SimpleRandomScheme::encode_into(std::size_t worker,
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

std::vector<std::int64_t> SimpleRandomScheme::message_meta(
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

std::unique_ptr<Collector> SimpleRandomScheme::make_collector() const {
  return std::make_unique<SimpleRandomCollector>(num_units());
}

}  // namespace coupon::core
