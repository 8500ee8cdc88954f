#include "core/fractional_repetition.hpp"

#include <algorithm>
#include <numeric>

#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

/// Block-coverage collector (structurally the BCC collector over blocks):
/// payloads slotted per block, summed in block order at decode.
class FrCollector final : public Collector {
 public:
  FrCollector(std::size_t num_blocks, std::size_t block_units)
      : block_units_(block_units),
        slots_(num_blocks),
        seen_(num_blocks, false) {}

  bool offer(std::size_t worker, std::span<const std::int64_t> meta,
             std::span<const double> payload) override {
    (void)worker;
    if (ready_) {
      return false;
    }
    note_offer(1.0);
    COUPON_ASSERT_MSG(meta.size() == 1, "FR message meta must be {block}");
    const auto block = static_cast<std::size_t>(meta[0]);
    COUPON_ASSERT(block < seen_.size());
    if (seen_[block]) {
      return false;  // replica of an already-received block
    }
    seen_[block] = true;
    ++covered_;
    if (!payload.empty()) {
      slots_[block].assign(payload.begin(), payload.end());
    }
    ready_ = covered_ == seen_.size();
    return true;
  }

  bool ready() const override { return ready_; }

  void decode_sum(std::span<double> out) const override {
    COUPON_ASSERT_MSG(ready_, "decode before block coverage");
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
      linalg::axpy(1.0, slots_[b], out);
      units += block_units_;
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

  std::size_t block_units_;
  std::vector<std::vector<double>> slots_;
  std::vector<bool> seen_;
  std::size_t covered_ = 0;
  bool ready_ = false;
};

/// The n/r blocks of r consecutive units, stored once; worker i holds
/// block i mod (n/r).
data::Placement fr_placement(std::size_t n, std::size_t r) {
  COUPON_ASSERT_MSG(r >= 1 && r <= n, "FR load must satisfy 1 <= r <= n");
  COUPON_ASSERT_MSG(n % r == 0, "FR requires r | n, got n=" << n << " r=" << r);
  const std::size_t blocks = n / r;
  std::vector<std::vector<std::size_t>> sets(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    sets[b].resize(r);
    std::iota(sets[b].begin(), sets[b].end(), b * r);
  }
  std::vector<std::size_t> block_of_worker(n);
  for (std::size_t i = 0; i < n; ++i) {
    block_of_worker[i] = i % blocks;
  }
  return data::Placement(n, std::move(sets), std::move(block_of_worker));
}

}  // namespace

FractionalRepetitionScheme::FractionalRepetitionScheme(
    std::size_t num_workers, std::size_t load)
    : Scheme(fr_placement(num_workers, load)), load_(load) {}

comm::Message FractionalRepetitionScheme::encode(
    std::size_t worker, const UnitGradientSource& source,
    std::span<const double> w) const {
  comm::Message msg;
  msg.tag = comm::kTagGradient;
  encode_into(worker, source, w, msg);
  return msg;
}

void FractionalRepetitionScheme::encode_into(std::size_t worker,
                                             const UnitGradientSource& source,
                                             std::span<const double> w,
                                             comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  out.meta.assign(1, static_cast<std::int64_t>(block_of_worker(worker)));
  out.payload.assign(source.dim(), 0.0);
  source.accumulate_units_gradient(placement_.worker(worker), w,
                                   out.payload);
}

std::unique_ptr<Collector> FractionalRepetitionScheme::make_collector() const {
  return std::make_unique<FrCollector>(num_blocks(), load_);
}

std::size_t FractionalRepetitionScheme::block_of_worker(
    std::size_t worker) const {
  COUPON_ASSERT(worker < num_workers());
  return placement_.set_of_worker(worker);
}

}  // namespace coupon::core
