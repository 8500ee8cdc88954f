#include "core/sgc.hpp"

#include <algorithm>
#include <numeric>

#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

/// Slot-per-worker collector that stops at the wait quota k* = n - r + 1
/// and decodes the scaled partial aggregate (n / (r k)) * sum of kept
/// messages, summed in worker order so the decode is independent of
/// arrival order for a given arrival *set*.
class SgcCollector final : public Collector {
 public:
  SgcCollector(std::size_t num_workers, std::size_t num_units,
               std::size_t load, std::size_t wait_quota)
      : num_units_(num_units),
        load_(load),
        wait_quota_(wait_quota),
        slots_(num_workers),
        heard_(num_workers, false) {}

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
    ready_ = count_ >= wait_quota_;
    return true;
  }

  bool ready() const override { return ready_; }

  void decode_sum(std::span<double> out) const override {
    COUPON_ASSERT_MSG(ready_, "decode before the wait quota was met");
    scaled_aggregate(out);
  }

  bool supports_partial_decode() const override { return true; }

  /// The same unbiased estimator as decode_sum, valid at any k >= 1:
  /// reports all m units as covered because the estimate targets the FULL
  /// gradient sum (the engine's covered/m rescale must be the identity).
  std::size_t decode_partial_sum(std::span<double> out) const override {
    if (count_ == 0) {
      linalg::fill(out, 0.0);
      return 0;
    }
    scaled_aggregate(out);
    return num_units_;
  }

 private:
  void scaled_aggregate(std::span<double> out) const {
    COUPON_ASSERT(count_ >= 1);
    linalg::fill(out, 0.0);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!heard_[i]) {
        continue;
      }
      COUPON_ASSERT_MSG(!slots_[i].empty(), "decode without payloads");
      COUPON_ASSERT(slots_[i].size() == out.size());
      linalg::axpy(1.0, slots_[i], out);
    }
    const double scale =
        static_cast<double>(slots_.size()) /
        (static_cast<double>(load_) * static_cast<double>(count_));
    linalg::scal(scale, out);
  }

  void do_reset() override {
    for (auto& slot : slots_) {
      slot.clear();
    }
    std::fill(heard_.begin(), heard_.end(), false);
    count_ = 0;
    ready_ = false;
  }

  std::size_t num_units_;
  std::size_t load_;
  std::size_t wait_quota_;
  std::vector<std::vector<double>> slots_;
  std::vector<bool> heard_;
  std::size_t count_ = 0;
  bool ready_ = false;
};

/// Balanced random placement: r rounds, each a uniform random bijection
/// between units and workers, repaired so no worker receives the same
/// unit twice. Gives every unit exactly r replicas and every worker
/// exactly r units (pair-wise balanced redundancy).
data::Placement balanced_random(std::size_t n, std::size_t load,
                                stats::Rng& rng) {
  std::vector<std::vector<std::size_t>> sets(n);
  if (load == n) {
    // Full replication: the only balanced placement is "everyone holds
    // everything" — nothing random left to draw.
    for (auto& g : sets) {
      g.resize(n);
      std::iota(g.begin(), g.end(), std::size_t{0});
    }
    return data::Placement(n, std::move(sets));
  }
  // held[w] tracks worker w's unit set for O(1) duplicate checks.
  std::vector<std::vector<bool>> held(n, std::vector<bool>(n, false));
  std::vector<std::size_t> perm(n);
  for (std::size_t round = 0; round < load; ++round) {
    // Repair within-worker duplicates by swapping assignments between
    // positions; a swap leaves both positions duplicate-free, so earlier
    // positions stay valid. When no swap partner exists (possible for
    // load close to n), redraw the whole round — for the loads this
    // library runs, a handful of redraws suffices overwhelmingly.
    bool round_ok = false;
    for (std::size_t attempt = 0; attempt < 64 && !round_ok; ++attempt) {
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      rng.shuffle(perm);
      round_ok = true;
      for (std::size_t w = 0; w < n && round_ok; ++w) {
        if (!held[w][perm[w]]) {
          continue;
        }
        bool swapped = false;
        for (std::size_t step = 1; step < n && !swapped; ++step) {
          const std::size_t t = (w + step) % n;
          if (!held[w][perm[t]] && !held[t][perm[w]]) {
            std::swap(perm[w], perm[t]);
            swapped = true;
          }
        }
        round_ok = swapped;
      }
    }
    COUPON_ASSERT_MSG(round_ok, "sgc placement repair failed to converge");
    for (std::size_t w = 0; w < n; ++w) {
      held[w][perm[w]] = true;
      sets[w].push_back(perm[w]);
    }
  }
  for (auto& g : sets) {
    std::sort(g.begin(), g.end());
  }
  return data::Placement(n, std::move(sets));
}

}  // namespace

SgcScheme::SgcScheme(std::size_t num_workers, std::size_t load,
                     stats::Rng& rng)
    : Scheme(balanced_random(num_workers, load, rng)), load_(load) {
  COUPON_ASSERT_MSG(num_workers >= 1, "need at least one worker");
  COUPON_ASSERT_MSG(load >= 1 && load <= num_workers,
                    "load r must be in [1, n]");
}

comm::Message SgcScheme::encode(std::size_t worker,
                                const UnitGradientSource& source,
                                std::span<const double> w) const {
  comm::Message msg;
  msg.tag = comm::kTagGradient;
  encode_into(worker, source, w, msg);
  return msg;
}

void SgcScheme::encode_into(std::size_t worker,
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

std::vector<std::int64_t> SgcScheme::message_meta(std::size_t worker) const {
  COUPON_ASSERT(worker < num_workers());
  return {static_cast<std::int64_t>(worker)};
}

std::unique_ptr<Collector> SgcScheme::make_collector() const {
  return std::make_unique<SgcCollector>(num_workers(), num_units(), load_,
                                        num_workers() - load_ + 1);
}

}  // namespace coupon::core
