#pragma once

/// \file checks.hpp
/// Output checks and reference computations: the analytic-oracle gate on
/// simulated means, the serial GD floor, and the wire cost of one
/// process-runtime iteration.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analytic/predictor.hpp"
#include "core/gradient_source.hpp"
#include "core/scheme.hpp"
#include "data/dataset.hpp"
#include "simulate/cluster_config.hpp"

namespace perfbench {

/// Outcome of comparing one cell's simulated means with the oracle.
struct OracleVerdict {
  bool ok = true;
  std::string detail;
};

/// The oracle's exact per-iteration E[K] and E[T] for (`scheme`,
/// `cluster`), without quantiles; nullopt (with `reason`) when it declines.
std::optional<coupon::analytic::Prediction> oracle_predict(
    const coupon::core::Scheme& scheme,
    const coupon::simulate::ClusterConfig& cluster, std::string* reason);

/// Checks that the simulated per-iteration mean K (`mean_k`) and time
/// (`mean_t`) over `iterations` iterations of an `num_workers`-worker cell
/// match `prediction` within 5 sigma / sqrt(iterations), where sigma is the
/// per-iteration standard deviation (`sd_k`, `sd_t`).
OracleVerdict compare_oracle(const coupon::analytic::Prediction& prediction,
                             std::size_t num_workers, double mean_k,
                             double mean_t, double sd_k, double sd_t,
                             std::size_t iterations);

/// Per-iteration standard deviations of K and T for (`scheme`, `cluster`),
/// estimated from `samples` iterations on an RNG stream seeded by `seed`.
void iteration_sd(const coupon::core::Scheme& scheme,
                  const coupon::simulate::ClusterConfig& cluster,
                  std::uint64_t seed, std::size_t samples, double* sd_k,
                  double* sd_t);

/// A plain single-process GD loop: full gradient in unit order (the
/// engine's reference oracle), then one Nesterov step.
struct SerialRun {
  std::vector<double> iteration_s;  ///< wall time of each iteration
  std::vector<double> weights;
  double final_loss = 0.0;
};
SerialRun serial_gd(const coupon::data::Dataset& dataset,
                    const coupon::core::UnitGradientSource& source,
                    double learning_rate, std::size_t iterations);

/// Bytes one process-runtime iteration puts on the wire (each worker gets
/// the model broadcast and sends its encoded reply; sizes from
/// `Message::wire_size`), and the mean time to serialize and deserialize
/// those messages once.
struct WireCost {
  double bytes_per_iter = 0.0;
  double codec_s_per_iter = 0.0;
};
WireCost wire_cost(const coupon::core::Scheme& scheme,
                   const coupon::core::UnitGradientSource& source,
                   double budget_s);

}  // namespace perfbench
