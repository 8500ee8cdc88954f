#include "driver/workload.hpp"

#include "driver/runtime_registry.hpp"
#include "opt/least_squares.hpp"
#include "opt/logistic.hpp"
#include "util/assert.hpp"

namespace coupon::driver {

WorkloadKey workload_key(const ExperimentConfig& config) {
  return {.seed = config.seed,
          .objective = config.objective,
          .units = config.num_units,
          .examples_per_unit = config.examples_per_unit,
          .features = config.features};
}

bool trains(const ExperimentConfig& config, const RuntimeCapabilities& caps) {
  return caps.computes_gradients || config.train;
}

std::unique_ptr<const TrainingWorkload> draw_workload(
    const ExperimentConfig& config) {
  auto out = std::make_unique<TrainingWorkload>();
  stats::Rng rng(config.seed);
  data::SyntheticConfig dconf;
  dconf.num_features = config.features;
  const data::Dataset* dataset = &out->problem.dataset;
  if (config.objective == "logistic") {
    const std::size_t num_examples =
        config.num_units * config.examples_per_unit;
    out->problem = data::generate_logreg(num_examples, dconf, rng);
    out->partition.emplace(num_examples, config.examples_per_unit);
    COUPON_ASSERT(out->partition->num_batches() == config.num_units);
    out->source = std::make_unique<core::GroupedBatchSource>(
        out->problem.dataset, *out->partition);
    out->loss = [dataset](std::span<const double> w) {
      return opt::logistic_loss(*dataset, w);
    };
    out->has_accuracy = true;
  } else {
    COUPON_ASSERT(config.objective == "least_squares");
    out->problem = data::generate_linreg(config.num_units, dconf,
                                         /*noise_stddev=*/0.2, rng);
    out->source =
        std::make_unique<core::LeastSquaresExampleSource>(out->problem.dataset);
    out->loss = [dataset](std::span<const double> w) {
      return opt::squared_loss(*dataset, w);
    };
  }
  out->rng = rng;
  return out;
}

}  // namespace coupon::driver
