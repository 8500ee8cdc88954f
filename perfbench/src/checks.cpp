#include "checks.hpp"

#include <cmath>
#include <sstream>

#include "analytic/predictor.hpp"
#include "comm/message.hpp"
#include "common.hpp"
#include "engine/training_engine.hpp"
#include "opt/logistic.hpp"
#include "opt/optimizer.hpp"
#include "simulate/cluster_sim.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace perfbench {

namespace analytic = coupon::analytic;
namespace simulate = coupon::simulate;

std::optional<analytic::Prediction> oracle_predict(
    const coupon::core::Scheme& scheme, const simulate::ClusterConfig& cluster,
    std::string* reason) {
  analytic::PredictOptions options;
  options.quantiles = false;
  return analytic::predict(scheme, cluster, options, reason);
}

OracleVerdict compare_oracle(const analytic::Prediction& prediction,
                             std::size_t num_workers, double mean_k,
                             double mean_t, double sd_k, double sd_t,
                             std::size_t iterations) {
  if (sd_k == 0.0) {
    // K never varied in the sigma sample: it is constant (c) but for rare
    // events (drops) the sample missed, which only ever lower it. Then
    // Var K <= E[(c - K)^2] <= n * E[c - K] = n * |c - E K|.
    sd_k = std::sqrt(static_cast<double>(num_workers) *
                     std::abs(mean_k - prediction.expected_workers));
  }
  const double root_n = std::sqrt(static_cast<double>(iterations));
  // A relative floor keeps a zero-variance cell from failing on the last
  // bit of a floating-point sum.
  const double tol_k = 5.0 * sd_k / root_n + 1e-9 * prediction.expected_workers;
  const double tol_t = 5.0 * sd_t / root_n + 1e-9 * prediction.expected_time;
  const double dk = std::abs(mean_k - prediction.expected_workers);
  const double dt = std::abs(mean_t - prediction.expected_time);
  OracleVerdict verdict;
  verdict.ok = dk <= tol_k && dt <= tol_t;
  std::ostringstream out;
  out << "K " << mean_k << " vs " << prediction.expected_workers << " (tol "
      << tol_k << "), T " << mean_t << " vs " << prediction.expected_time
      << " (tol " << tol_t << ")";
  verdict.detail = out.str();
  return verdict;
}

void iteration_sd(const coupon::core::Scheme& scheme,
                  const simulate::ClusterConfig& cluster, std::uint64_t seed,
                  std::size_t samples, double* sd_k, double* sd_t) {
  coupon::stats::Rng rng(seed);
  const auto model = simulate::make_latency_model(cluster, scheme.num_workers());
  simulate::IterationKernel kernel(scheme, cluster);
  coupon::stats::OnlineStats k;
  coupon::stats::OnlineStats t;
  for (std::size_t i = 0; i < samples; ++i) {
    const simulate::IterationReport it = kernel.run(*model, i, rng);
    k.add(static_cast<double>(it.workers_heard));
    t.add(it.total_time);
  }
  *sd_k = k.stddev();
  *sd_t = t.stddev();
}

SerialRun serial_gd(const coupon::data::Dataset& dataset,
                    const coupon::core::UnitGradientSource& source,
                    double learning_rate, std::size_t iterations) {
  SerialRun run;
  run.iteration_s.reserve(iterations);
  coupon::opt::NesterovGradient optimizer(
      source.dim(), coupon::opt::LearningRateSchedule::constant(learning_rate));
  const coupon::opt::GradientOracle oracle =
      coupon::engine::reference_oracle(source);
  std::vector<double> grad(source.dim());
  for (std::size_t t = 0; t < iterations; ++t) {
    const double t0 = now_s();
    oracle(optimizer.query_point(), grad);
    optimizer.apply_gradient(grad);
    run.iteration_s.push_back(now_s() - t0);
  }
  const auto w = optimizer.weights();
  run.weights.assign(w.begin(), w.end());
  run.final_loss = coupon::opt::logistic_loss(dataset, run.weights);
  return run;
}

WireCost wire_cost(const coupon::core::Scheme& scheme,
                   const coupon::core::UnitGradientSource& source,
                   double budget_s) {
  namespace comm = coupon::comm;
  const std::size_t n = scheme.num_workers();
  std::vector<double> w(source.dim(), 0.0);
  std::vector<comm::Message> messages;
  WireCost cost;
  for (std::size_t i = 0; i < n; ++i) {
    comm::Message broadcast;
    broadcast.source = 0;
    broadcast.dest = static_cast<std::int32_t>(i + 1);
    broadcast.tag = comm::kTagModelBroadcast;
    broadcast.iteration = 0;
    broadcast.payload = w;
    comm::Message reply = scheme.encode(i, source, w);
    reply.source = static_cast<std::int32_t>(i + 1);
    reply.dest = 0;
    reply.tag = comm::kTagGradient;
    reply.iteration = 0;
    cost.bytes_per_iter += static_cast<double>(broadcast.wire_size() +
                                               reply.wire_size());
    messages.push_back(std::move(broadcast));
    messages.push_back(std::move(reply));
  }
  comm::Message parsed;
  for (const comm::Message& m : messages) {
    if (!comm::deserialize(comm::serialize(m), parsed) || !(parsed == m)) {
      cost.codec_s_per_iter = -1.0;  // a codec round trip lost data
      return cost;
    }
  }
  std::size_t rounds = 0;
  bool parsed_ok = true;
  const double t0 = now_s();
  double elapsed = 0.0;
  do {
    for (const comm::Message& m : messages) {
      parsed_ok &= comm::deserialize(comm::serialize(m), parsed);
    }
    ++rounds;
    elapsed = now_s() - t0;
  } while (elapsed < budget_s);
  if (!parsed_ok) {
    cost.codec_s_per_iter = -1.0;
    return cost;
  }
  cost.codec_s_per_iter = elapsed / static_cast<double>(rounds);
  return cost;
}

}  // namespace perfbench
