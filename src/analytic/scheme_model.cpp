#include "analytic/scheme_model.hpp"

#include <sstream>
#include <stdexcept>

#include "analytic/coverage.hpp"
#include "core/cyclic_repetition.hpp"
#include "core/gc_cyclic.hpp"
#include "core/gc_nested.hpp"
#include "core/partition_scheme.hpp"
#include "core/sgc.hpp"
#include "core/simple_random.hpp"

namespace coupon::analytic {

namespace {

SchemeModelResult fail(std::string reason) {
  return SchemeModelResult{std::nullopt, std::move(reason)};
}

SchemeModelResult ok(std::vector<double> table, double message_units) {
  return SchemeModelResult{CoverageProfile{std::move(table), message_units},
                           {}};
}

/// The exchangeability preconditions shared by every reduction: all
/// workers compute the same number of units and ship the same-size
/// message. Returns the common message size, or a reason.
std::optional<std::string> check_exchangeable(const core::Scheme& scheme,
                                              double* message_units) {
  const auto& placement = scheme.placement();
  const std::size_t n = scheme.num_workers();
  const std::size_t load0 = placement.worker(0).size();
  for (std::size_t w = 1; w < n; ++w) {
    if (placement.worker(w).size() != load0) {
      std::ostringstream out;
      out << "unequal per-worker loads (|G_0|=" << load0 << ", |G_" << w
          << "|=" << placement.worker(w).size()
          << "): compute times are not iid, so the order-statistic "
             "reduction does not apply";
      return out.str();
    }
  }
  const double units0 = scheme.message_units(0);
  for (std::size_t w = 1; w < n; ++w) {
    if (scheme.message_units(w) != units0) {
      return "unequal per-worker message sizes: the serialized ingress "
             "no longer has one common service time";
    }
  }
  *message_units = units0;
  return std::nullopt;
}

template <typename ConcreteScheme>
const ConcreteScheme* cast_or_reason(const core::Scheme& scheme,
                                     std::string_view expected,
                                     std::string* reason) {
  const auto* concrete = dynamic_cast<const ConcreteScheme*>(&scheme);
  if (concrete == nullptr) {
    std::ostringstream out;
    out << "scheme instance registered as '" << scheme.registry_name()
        << "' is not the built-in " << expected
        << " implementation this model understands";
    *reason = out.str();
  }
  return concrete;
}

class CyclicRepetitionModel final : public SchemeRuntimeModel {
 public:
  std::string_view scheme_name() const override { return "cr"; }
  std::string_view description() const override {
    return "threshold n-r+1 (any n-s workers decode)";
  }
  SchemeModelResult coverage_profile(
      const core::Scheme& scheme) const override {
    std::string reason;
    const auto* cr = cast_or_reason<core::CyclicRepetitionScheme>(
        scheme, "cyclic repetition", &reason);
    if (cr == nullptr) {
      return fail(std::move(reason));
    }
    double units = 1.0;
    if (auto why = check_exchangeable(scheme, &units)) {
      return fail(std::move(*why));
    }
    const std::size_t n = scheme.num_workers();
    return ok(coverage_threshold(n, n - cr->stragglers_tolerated()), units);
  }
};

/// Uncoded, FR and BCC: coverage of the placement's sets, conditioned on
/// the realized worker-to-set map (BCC's drawn batch choices), exactly
/// like one simulated run does. A set no worker holds (a BCC batch
/// nobody picked) makes every iteration a coverage failure (A == 0
/// throughout); uncoded's one set per worker is the wait-for-all
/// threshold n.
class PartitionModel final : public SchemeRuntimeModel {
 public:
  PartitionModel(std::string_view scheme_name, std::string_view description)
      : scheme_name_(scheme_name), description_(description) {}

  std::string_view scheme_name() const override { return scheme_name_; }
  std::string_view description() const override { return description_; }
  SchemeModelResult coverage_profile(
      const core::Scheme& scheme) const override {
    std::string reason;
    if (cast_or_reason<core::PartitionScheme>(scheme, "partition",
                                              &reason) == nullptr) {
      return fail(std::move(reason));
    }
    double units = 1.0;
    if (auto why = check_exchangeable(scheme, &units)) {
      return fail(std::move(*why));  // uncoded n or BCC r not dividing m
    }
    const auto& placement = scheme.placement();
    std::vector<std::size_t> group_sizes(placement.num_sets(), 0);
    for (std::size_t w = 0; w < scheme.num_workers(); ++w) {
      ++group_sizes[placement.set_of_worker(w)];
    }
    return ok(coverage_partition(scheme.num_workers(), group_sizes), units);
  }

 private:
  std::string_view scheme_name_;
  std::string_view description_;
};

class SimpleRandomModel final : public SchemeRuntimeModel {
 public:
  std::string_view scheme_name() const override { return "simple_random"; }
  std::string_view description() const override {
    return "exact unit-set coverage by 2^n enumeration (n<=24, m<=64)";
  }
  SchemeModelResult coverage_profile(
      const core::Scheme& scheme) const override {
    std::string reason;
    if (cast_or_reason<core::SimpleRandomScheme>(scheme, "simple randomized",
                                                 &reason) == nullptr) {
      return fail(std::move(reason));
    }
    const std::size_t n = scheme.num_workers();
    const std::size_t m = scheme.num_units();
    if (n > 24 || m > 64) {
      std::ostringstream out;
      out << "exact subset enumeration needs n <= 24 and m <= 64 (got n="
          << n << ", m=" << m
          << "); simple_random has no product structure to exploit — use "
             "Monte Carlo at this size";
      return fail(out.str());
    }
    double units = 1.0;
    if (auto why = check_exchangeable(scheme, &units)) {
      return fail(std::move(*why));
    }
    std::vector<std::uint64_t> masks(n, 0);
    for (std::size_t w = 0; w < n; ++w) {
      for (std::size_t unit : scheme.placement().worker(w)) {
        masks[w] |= std::uint64_t{1} << unit;
      }
    }
    return ok(coverage_union_masks(masks, m), units);
  }
};

class GcCyclicModel final : public SchemeRuntimeModel {
 public:
  std::string_view scheme_name() const override { return "gc_cyclic"; }
  std::string_view description() const override {
    return "threshold n-r+1 (any n-s workers decode; r-unit messages)";
  }
  SchemeModelResult coverage_profile(
      const core::Scheme& scheme) const override {
    std::string reason;
    const auto* gc = cast_or_reason<core::GcCyclicScheme>(
        scheme, "exact gradient coding", &reason);
    if (gc == nullptr) {
      return fail(std::move(reason));
    }
    double units = 1.0;
    if (auto why = check_exchangeable(scheme, &units)) {
      return fail(std::move(*why));
    }
    const std::size_t n = scheme.num_workers();
    return ok(coverage_threshold(n, n - gc->stragglers_tolerated()), units);
  }
};

class SgcModel final : public SchemeRuntimeModel {
 public:
  std::string_view scheme_name() const override { return "sgc"; }
  std::string_view description() const override {
    return "unsupported: approximate decode has no exact-runtime reduction";
  }
  SchemeModelResult coverage_profile(
      const core::Scheme& scheme) const override {
    std::string reason;
    if (cast_or_reason<core::SgcScheme>(scheme, "stochastic gradient coding",
                                        &reason) == nullptr) {
      return fail(std::move(reason));
    }
    // The *timing* law (stop at the first n-r+1 workers) is a plain
    // threshold, but E[T] alone would mislead the --predict ranking:
    // decode_sum returns a noisy estimate, so per-iteration runtime is
    // not comparable against exact-recovery schemes — convergence-per-
    // second is the fair metric, and that needs the gradient-noise/
    // step-size interplay the oracle does not model. Gate SGC with the
    // statistical tests instead.
    return fail(
        "sgc decode is stochastic (unbiased but noisy): iteration time has "
        "a threshold law, but ranking it against exact-recovery schemes on "
        "E[T] alone would ignore the decode noise's convergence cost — "
        "compare via the convergence benches/tests instead");
  }
};

class GcNestedModel final : public SchemeRuntimeModel {
 public:
  std::string_view scheme_name() const override { return "gc_nested"; }
  std::string_view description() const override {
    return "threshold n-r+1 (ladder decodes by n-s; d(r)-unit messages)";
  }
  SchemeModelResult coverage_profile(
      const core::Scheme& scheme) const override {
    std::string reason;
    const auto* gc = cast_or_reason<core::GcNestedScheme>(
        scheme, "nested gradient coding", &reason);
    if (gc == nullptr) {
      return fail(std::move(reason));
    }
    double units = 1.0;
    if (auto why = check_exchangeable(scheme, &units)) {
      return fail(std::move(*why));
    }
    // Timing is level-independent: the master always waits for the
    // n-r+1 quota (the level only picks which arrived components are
    // summed), so the profile is the same threshold as exact GC — with
    // the d(r)-component message size from check_exchangeable.
    const std::size_t n = scheme.num_workers();
    return ok(coverage_threshold(n, n - gc->stragglers_tolerated()), units);
  }
};

}  // namespace

AnalyticModelRegistry& AnalyticModelRegistry::instance() {
  static AnalyticModelRegistry registry;
  return registry;
}

AnalyticModelRegistry::AnalyticModelRegistry() {
  add(std::make_unique<PartitionModel>(
      "uncoded", "threshold n (wait-for-all; needs n | m for equal loads)"));
  add(std::make_unique<PartitionModel>(
      "fr", "partition coverage over n/r replicated blocks"));
  add(std::make_unique<CyclicRepetitionModel>());
  add(std::make_unique<PartitionModel>(
      "bcc", "partition coverage over the realized batch choices"));
  add(std::make_unique<SimpleRandomModel>());
  add(std::make_unique<GcCyclicModel>());
  add(std::make_unique<SgcModel>());
  add(std::make_unique<GcNestedModel>());
}

void AnalyticModelRegistry::add(std::unique_ptr<SchemeRuntimeModel> model) {
  if (model == nullptr) {
    throw std::invalid_argument("analytic model must not be null");
  }
  if (find(model->scheme_name()) != nullptr) {
    throw std::invalid_argument("duplicate analytic model for scheme '" +
                                std::string(model->scheme_name()) + "'");
  }
  models_.push_back(std::move(model));
}

const SchemeRuntimeModel* AnalyticModelRegistry::find(
    std::string_view scheme_name) const {
  for (const auto& model : models_) {
    if (model->scheme_name() == scheme_name) {
      return model.get();
    }
  }
  return nullptr;
}

std::vector<std::string> AnalyticModelRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& model : models_) {
    out.emplace_back(model->scheme_name());
  }
  return out;
}

}  // namespace coupon::analytic
