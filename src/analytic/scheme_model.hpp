#pragma once

/// \file scheme_model.hpp
/// Per-scheme analytic runtime models (DESIGN.md §10).
///
/// A `SchemeRuntimeModel` reduces one *realized* scheme instance (its
/// drawn placement included) to the coverage profile A[j] of
/// coverage.hpp plus the common per-message size. That reduction is the
/// only scheme-specific knowledge the oracle needs: everything
/// downstream (expected runtimes, quantiles, failure probabilities under
/// drops) is scheme-agnostic order-statistics work in predictor.cpp.
///
/// The reduction is exact only when workers are exchangeable in the
/// timing process — equal compute loads and equal message sizes — so
/// each model validates the realized structure and reports an
/// explanatory reason instead of a profile when it does not hold
/// (e.g. uncoded with n not dividing m, or a simple_random instance too
/// large for exact 2^n enumeration).
///
/// Models are looked up by the scheme's registry name through
/// `AnalyticModelRegistry`, mirroring `core::SchemeRegistry`: adding an
/// analytic model for a new scheme is one `add()` call, no switch
/// statements. Every built-in scheme has a model; uncoded, fr and bcc
/// share one, the partition model.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheme.hpp"

namespace coupon::analytic {

/// The analytic reduction of one realized scheme instance.
struct CoverageProfile {
  /// A[j] = P(a uniform j-subset of workers makes the collector ready),
  /// j = 0..n (see coverage.hpp for the derivation).
  std::vector<double> table;
  /// Per-worker message size in gradient units (equal across workers —
  /// a precondition of the reduction, validated by the model).
  double message_units = 1.0;
};

/// Either a profile or a human-readable reason why the scheme instance
/// has no exact reduction.
struct SchemeModelResult {
  std::optional<CoverageProfile> profile;
  std::string reason;  ///< set iff !profile
};

/// Analytic model for one scheme family (keyed by registry name).
class SchemeRuntimeModel {
 public:
  virtual ~SchemeRuntimeModel() = default;

  /// The `core::SchemeRegistry` name this model covers ("bcc", ...).
  virtual std::string_view scheme_name() const = 0;

  /// One-line description of how the scheme reduces (for --list).
  virtual std::string_view description() const = 0;

  /// Reduces the realized placement of `scheme` to a coverage profile,
  /// or explains why it cannot.
  virtual SchemeModelResult coverage_profile(
      const core::Scheme& scheme) const = 0;
};

/// Process-wide scheme-name -> analytic-model registry. The built-in
/// models are registered on first access.
class AnalyticModelRegistry {
 public:
  static AnalyticModelRegistry& instance();

  /// Registers `model`; throws std::invalid_argument on a name collision
  /// or a null model.
  void add(std::unique_ptr<SchemeRuntimeModel> model);

  /// nullptr when the scheme has no analytic model.
  const SchemeRuntimeModel* find(std::string_view scheme_name) const;

  /// Covered scheme names in registration order.
  std::vector<std::string> names() const;

 private:
  AnalyticModelRegistry();  // registers the built-ins

  std::vector<std::unique_ptr<SchemeRuntimeModel>> models_;
};

}  // namespace coupon::analytic
