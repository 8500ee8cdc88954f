#include "core/gc_nested.hpp"

#include <algorithm>

#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

/// Slot-per-worker collector: keeps each arriving worker's full
/// L-component payload, flips ready at n - r + 1 distinct workers, and
/// decodes by walking the ladder from the narrowest width up to the
/// first width with an intact residue class in the arrival set.
class GcNestedCollector final : public Collector {
 public:
  GcNestedCollector(std::size_t num_workers, std::size_t wait_quota,
                    std::vector<std::size_t> widths)
      : wait_quota_(wait_quota),
        widths_(std::move(widths)),
        slots_(num_workers),
        heard_(num_workers, false) {}

  bool offer(std::size_t worker, std::span<const std::int64_t> meta,
             std::span<const double> payload) override {
    (void)meta;
    if (ready_) {
      return false;
    }
    COUPON_ASSERT(worker < heard_.size());
    note_offer(static_cast<double>(widths_.size()));
    if (heard_[worker]) {
      return false;  // duplicate delivery of the same worker's message
    }
    heard_[worker] = true;
    ++count_;
    if (!payload.empty()) {
      COUPON_ASSERT_MSG(payload.size() % widths_.size() == 0,
                        "payload not a whole number of level components");
      slots_[worker].assign(payload.begin(), payload.end());
    }
    ready_ = count_ >= wait_quota_;
    return true;
  }

  bool ready() const override { return ready_; }

  void decode_sum(std::span<double> out) const override {
    COUPON_ASSERT_MSG(ready_, "decode before the wait quota was met");
    const std::size_t level = decode_level();
    COUPON_ASSERT_MSG(level < widths_.size(),
                      "no intact residue class at the wait quota");
    const std::size_t w = widths_[level];
    const std::size_t c = intact_class(w);
    const std::size_t dim = out.size();
    linalg::fill(out, 0.0);
    for (std::size_t i = c; i < heard_.size(); i += w) {
      COUPON_ASSERT_MSG(!slots_[i].empty(), "decode without payloads");
      COUPON_ASSERT(slots_[i].size() == widths_.size() * dim);
      linalg::axpy(1.0,
                   std::span<const double>(slots_[i]).subspan(level * dim, dim),
                   out);
    }
  }

  /// The index into widths() the current arrival set decodes at: the
  /// narrowest (least coded) width with a fully-arrived residue class.
  /// widths_.size() when none exists yet.
  std::size_t decode_level() const {
    for (std::size_t level = 0; level < widths_.size(); ++level) {
      if (intact_class(widths_[level]) < widths_[level]) {
        return level;
      }
    }
    return widths_.size();
  }

 private:
  /// First residue class c (mod w) with every member arrived; w if none.
  std::size_t intact_class(std::size_t w) const {
    for (std::size_t c = 0; c < w; ++c) {
      bool intact = true;
      for (std::size_t i = c; i < heard_.size() && intact; i += w) {
        intact = heard_[i];
      }
      if (intact) {
        return c;
      }
    }
    return w;
  }

  void do_reset() override {
    for (auto& slot : slots_) {
      slot.clear();
    }
    std::fill(heard_.begin(), heard_.end(), false);
    count_ = 0;
    ready_ = false;
  }

  std::size_t wait_quota_;
  std::vector<std::size_t> widths_;
  std::vector<std::vector<double>> slots_;
  std::vector<bool> heard_;
  std::size_t count_ = 0;
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

std::vector<std::size_t> divisors_ascending(std::size_t r) {
  std::vector<std::size_t> d;
  for (std::size_t w = 1; w <= r; ++w) {
    if (r % w == 0) {
      d.push_back(w);
    }
  }
  return d;
}

}  // namespace

GcNestedScheme::GcNestedScheme(std::size_t num_workers, std::size_t load)
    : Scheme(cyclic_windows(num_workers, load)),
      load_(load),
      widths_(divisors_ascending(load)) {
  COUPON_ASSERT_MSG(num_workers >= 1, "need at least one worker");
  COUPON_ASSERT_MSG(load >= 1 && load <= num_workers,
                    "load r must be in [1, n]");
  COUPON_ASSERT_MSG(num_workers % load == 0,
                    "nested gradient coding requires r | n");
}

comm::Message GcNestedScheme::encode(std::size_t worker,
                                     const UnitGradientSource& source,
                                     std::span<const double> w) const {
  comm::Message msg;
  msg.tag = comm::kTagGradient;
  encode_into(worker, source, w, msg);
  return msg;
}

void GcNestedScheme::encode_into(std::size_t worker,
                                 const UnitGradientSource& source,
                                 std::span<const double> w,
                                 comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  const auto& units = placement_.worker(worker);
  const std::size_t dim = source.dim();
  const std::size_t levels = widths_.size();
  out.meta.assign(1, static_cast<std::int64_t>(worker));
  // Prefix sums of the window's unit gradients: add unit k's gradient to
  // a running sum and snapshot it whenever k + 1 hits a level width. The
  // sum is built unit-by-unit (not example-by-example) so a caching
  // source can serve each unit's gradient once to all r windows holding
  // it. The payload tail holds the running sum and unit scratch (trimmed
  // before returning), keeping a warm encode allocation-free.
  out.payload.assign((levels + 2) * dim, 0.0);
  const std::span<double> running{out.payload.data() + levels * dim, dim};
  const std::span<double> scratch{out.payload.data() + (levels + 1) * dim,
                                  dim};
  std::size_t level = 0;
  for (std::size_t k = 0; k < units.size(); ++k) {
    const std::span<const double> g =
        source.unit_gradient_view(units[k], w, scratch);
    linalg::axpy(1.0, g, running);
    if (level < levels && k + 1 == widths_[level]) {
      std::copy(running.begin(), running.end(),
                out.payload.begin() + static_cast<std::ptrdiff_t>(level * dim));
      ++level;
    }
  }
  COUPON_ASSERT(level == levels);
  out.payload.resize(levels * dim);
}

std::vector<std::int64_t> GcNestedScheme::message_meta(
    std::size_t worker) const {
  COUPON_ASSERT(worker < num_workers());
  return {static_cast<std::int64_t>(worker)};
}

std::unique_ptr<Collector> GcNestedScheme::make_collector() const {
  return std::make_unique<GcNestedCollector>(
      num_workers(), num_workers() - load_ + 1, widths_);
}

}  // namespace coupon::core
