#include "core/uncoded.hpp"

#include <algorithm>

#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

/// Wait-for-all collector. Payloads are slotted per worker and summed in
/// worker order at decode, making the decode independent of arrival order.
class UncodedCollector final : public Collector {
 public:
  /// `worker_units[i]` = |G_i|, for partial-coverage accounting.
  explicit UncodedCollector(std::vector<std::size_t> worker_units)
      : worker_units_(std::move(worker_units)),
        slots_(worker_units_.size()),
        heard_(worker_units_.size(), false) {}

  bool offer(std::size_t worker, std::span<const std::int64_t> meta,
             std::span<const double> payload) override {
    (void)meta;
    if (ready_) {
      return false;
    }
    COUPON_ASSERT(worker < heard_.size());
    note_offer(1.0);
    if (heard_[worker]) {
      return false;  // duplicate delivery of the same worker's message
    }
    heard_[worker] = true;
    ++count_;
    if (!payload.empty()) {
      slots_[worker].assign(payload.begin(), payload.end());
    }
    ready_ = count_ == heard_.size();
    return true;
  }

  bool ready() const override { return ready_; }

  void decode_sum(std::span<double> out) const override {
    COUPON_ASSERT_MSG(ready_, "decode before all workers reported");
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
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!heard_[i]) {
        continue;
      }
      COUPON_ASSERT_MSG(!slots_[i].empty(), "partial decode without payloads");
      linalg::axpy(1.0, slots_[i], out);
      units += worker_units_[i];
    }
    return units;
  }

 private:
  void do_reset() override {
    for (auto& slot : slots_) {
      slot.clear();
    }
    std::fill(heard_.begin(), heard_.end(), false);
    count_ = 0;
    ready_ = false;
  }

  std::vector<std::size_t> worker_units_;
  std::vector<std::vector<double>> slots_;
  std::vector<bool> heard_;
  std::size_t count_ = 0;
  bool ready_ = false;
};

data::Placement even_split(std::size_t num_workers, std::size_t num_units) {
  std::vector<std::vector<std::size_t>> sets(num_workers);
  const std::size_t base = num_units / num_workers;
  const std::size_t extra = num_units % num_workers;
  std::size_t next = 0;
  for (std::size_t i = 0; i < num_workers; ++i) {
    const std::size_t len = base + (i < extra ? 1 : 0);
    auto& g = sets[i];
    g.reserve(len);
    for (std::size_t k = 0; k < len; ++k) {
      g.push_back(next++);
    }
  }
  COUPON_ASSERT(next == num_units);
  return data::Placement(num_units, std::move(sets));
}

}  // namespace

UncodedScheme::UncodedScheme(std::size_t num_workers, std::size_t num_units)
    : Scheme(even_split(num_workers, num_units)) {
  COUPON_ASSERT_MSG(num_workers >= 1 && num_units >= num_workers,
                    "uncoded requires m >= n so every worker has work");
}

comm::Message UncodedScheme::encode(std::size_t worker,
                                    const UnitGradientSource& source,
                                    std::span<const double> w) const {
  comm::Message msg;
  msg.tag = comm::kTagGradient;
  encode_into(worker, source, w, msg);
  return msg;
}

void UncodedScheme::encode_into(std::size_t worker,
                                const UnitGradientSource& source,
                                std::span<const double> w,
                                comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  out.meta.assign(1, static_cast<std::int64_t>(worker));
  out.payload.assign(source.dim(), 0.0);
  source.accumulate_units_gradient(placement_.worker(worker), w,
                                   out.payload);
}

std::unique_ptr<Collector> UncodedScheme::make_collector() const {
  std::vector<std::size_t> worker_units(num_workers());
  for (std::size_t i = 0; i < num_workers(); ++i) {
    worker_units[i] = placement_.worker(i).size();
  }
  return std::make_unique<UncodedCollector>(std::move(worker_units));
}

}  // namespace coupon::core
