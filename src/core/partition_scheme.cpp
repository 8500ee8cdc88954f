#include "core/partition_scheme.hpp"

#include <algorithm>
#include <numeric>

#include "core/theory.hpp"
#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

/// Coverage collector over the placement's sets. Kept payloads are
/// stored per set and summed in set order at decode time, so the decoded
/// gradient is bit-identical regardless of message arrival order (the
/// threaded runtime's arrival order depends on OS scheduling).
class PartitionCollector final : public Collector {
 public:
  /// `set_units[s]` is the number of units in set s (BCC's last batch
  /// may be short); needed to report how many units a partial decode
  /// covers.
  explicit PartitionCollector(std::vector<std::size_t> set_units)
      : set_units_(std::move(set_units)),
        slots_(set_units_.size()),
        seen_(set_units_.size(), false) {}

  bool offer(std::size_t worker, std::span<const std::int64_t> meta,
             std::span<const double> payload) override {
    (void)worker;
    if (ready_) {
      return false;
    }
    note_offer(1.0);
    COUPON_ASSERT_MSG(meta.size() == 1, "partition meta must be {set}");
    const auto set = static_cast<std::size_t>(meta[0]);
    COUPON_ASSERT(set < slots_.size());
    if (seen_[set]) {
      return false;  // duplicate coupon: the master discards it
    }
    seen_[set] = true;
    ++covered_;
    if (!payload.empty()) {
      slots_[set].assign(payload.begin(), payload.end());
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
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (!seen_[s]) {
        continue;
      }
      COUPON_ASSERT_MSG(!slots_[s].empty(), "partial decode without payloads");
      COUPON_ASSERT(slots_[s].size() == out.size());
      linalg::axpy(1.0, slots_[s], out);
      units += set_units_[s];
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

  std::vector<std::size_t> set_units_;
  std::vector<std::vector<double>> slots_;
  std::vector<bool> seen_;
  std::size_t covered_ = 0;
  bool ready_ = false;
};

/// `count` sets of `size` consecutive units ({s size, ...}), the last cut
/// short at `num_units`.
std::vector<std::vector<std::size_t>> consecutive_sets(std::size_t num_units,
                                                       std::size_t size,
                                                       std::size_t count) {
  std::vector<std::vector<std::size_t>> sets(count);
  for (std::size_t s = 0; s < count; ++s) {
    sets[s].resize(std::min(size, num_units - s * size));
    std::iota(sets[s].begin(), sets[s].end(), s * size);
  }
  return sets;
}

}  // namespace

PartitionScheme::PartitionScheme(std::string registry_name, std::string name,
                                 data::Placement placement,
                                 std::optional<double> expected_threshold)
    : Scheme(std::move(placement)),
      registry_name_(std::move(registry_name)),
      name_(std::move(name)),
      expected_threshold_(expected_threshold) {}

comm::Message PartitionScheme::encode(std::size_t worker,
                                      const UnitGradientSource& source,
                                      std::span<const double> w) const {
  comm::Message msg;
  msg.tag = comm::kTagGradient;
  encode_into(worker, source, w, msg);
  return msg;
}

void PartitionScheme::encode_into(std::size_t worker,
                                  const UnitGradientSource& source,
                                  std::span<const double> w,
                                  comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  out.meta.assign(1, static_cast<std::int64_t>(set_of(worker)));
  out.payload.assign(source.dim(), 0.0);
  source.accumulate_units_gradient(placement_.worker(worker), w,
                                   out.payload);
}

std::vector<std::int64_t> PartitionScheme::message_meta(
    std::size_t worker) const {
  return {static_cast<std::int64_t>(set_of(worker))};
}

std::unique_ptr<Collector> PartitionScheme::make_collector() const {
  std::vector<std::size_t> set_units(num_sets());
  for (std::size_t s = 0; s < set_units.size(); ++s) {
    set_units[s] = placement_.set(s).size();
  }
  return std::make_unique<PartitionCollector>(std::move(set_units));
}

std::optional<std::size_t> PartitionScheme::encode_group(
    std::size_t worker) const {
  if (!shares_sets()) {
    return std::nullopt;
  }
  return set_of(worker);
}

std::size_t PartitionScheme::set_of(std::size_t worker) const {
  COUPON_ASSERT(worker < num_workers());
  return placement_.set_of_worker(worker);
}

std::unique_ptr<PartitionScheme> make_uncoded(std::size_t num_workers,
                                              std::size_t num_units) {
  COUPON_ASSERT_MSG(num_workers >= 1 && num_units >= num_workers,
                    "uncoded requires m >= n so every worker has work");
  std::vector<std::vector<std::size_t>> sets(num_workers);
  const std::size_t base = num_units / num_workers;
  const std::size_t extra = num_units % num_workers;
  std::size_t next = 0;
  for (std::size_t i = 0; i < num_workers; ++i) {
    sets[i].resize(base + (i < extra ? 1 : 0));
    std::iota(sets[i].begin(), sets[i].end(), next);
    next += sets[i].size();
  }
  return std::make_unique<PartitionScheme>(
      "uncoded", "uncoded", data::Placement(num_units, std::move(sets)),
      static_cast<double>(num_workers));
}

std::unique_ptr<PartitionScheme> make_fractional_repetition(
    std::size_t num_workers, std::size_t load) {
  COUPON_ASSERT_MSG(load >= 1 && load <= num_workers,
                    "FR load must satisfy 1 <= r <= n");
  COUPON_ASSERT_MSG(num_workers % load == 0, "FR requires r | n, got n="
                                                 << num_workers
                                                 << " r=" << load);
  const std::size_t blocks = num_workers / load;
  std::vector<std::size_t> block(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    block[i] = i % blocks;
  }
  // No closed form for the average (block coverage without replacement);
  // theory::mc_fractional_repetition_threshold estimates it.
  return std::make_unique<PartitionScheme>(
      "fr", "fractional repetition",
      data::Placement(num_workers, consecutive_sets(num_workers, load, blocks),
                      std::move(block)),
      std::nullopt);
}

std::unique_ptr<PartitionScheme> make_bcc(std::size_t num_workers,
                                          std::size_t num_units,
                                          std::size_t load,
                                          bool seed_first_batches,
                                          stats::Rng& rng) {
  COUPON_ASSERT_MSG(num_units > 0 && load > 0,
                    "m=" << num_units << " r=" << load);
  const std::size_t batches = theory::bcc_batches(num_units, load);
  COUPON_ASSERT_MSG(num_workers >= batches,
                    "need n >= ceil(m/r) workers to cover all batches");
  auto sets = consecutive_sets(num_units, load, batches);
  std::vector<std::size_t> batch_choice(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    if (seed_first_batches && i < batches) {
      batch_choice[i] = i;
    } else {
      batch_choice[i] = static_cast<std::size_t>(rng.uniform_int(batches));
    }
  }
  return std::make_unique<PartitionScheme>(
      "bcc", "BCC",
      data::Placement(num_units, std::move(sets), std::move(batch_choice)),
      theory::k_bcc(num_units, load));
}

}  // namespace coupon::core
