#include "driver/driver.hpp"

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/scheme_registry.hpp"
#include "driver/runtime_registry.hpp"
#include "driver/scenario_registry.hpp"
#include "util/assert.hpp"

namespace coupon::driver {

ExperimentConfig ec2_scenario_one() {
  ExperimentConfig config;
  config.scenario = "shifted_exp";
  config.num_workers = 50;
  config.num_units = 50;
  config.load = 10;
  config.iterations = 100;
  config.seed = 0xEC2001;
  return config;
}

ExperimentConfig ec2_scenario_two() {
  ExperimentConfig config = ec2_scenario_one();
  config.num_workers = 100;
  config.num_units = 100;
  config.seed = 0xEC2002;
  return config;
}

void add_experiment_flags(CliFlags& flags) {
  flags.add_string("scheme", "bcc",
                   "gradient-coding scheme (" +
                       core::SchemeRegistry::instance().choices() +
                       "; 'auto' = let the analytic oracle pick)")
      .add_string("scenario", "shifted_exp",
                  "straggler scenario (" +
                      ScenarioRegistry::instance().choices() + ")")
      .add_string("runtime", "sim",
                  "execution substrate (" +
                      RuntimeRegistry::instance().choices() + ")")
      .add_int("workers", 50, "number of workers n")
      .add_int("units", 50, "number of gradient units m")
      .add_int("load", 10, "computational load r, units per worker")
      .add_int("iterations", 100, "GD iterations per run")
      .add_int("seed", 1, "PRNG seed")
      .add_string("on_failure", "skip",
                  "unrecoverable-iteration policy (skip|partial)")
      .add_bool("train", false,
                "sim runtime: train real gradients over simulated time "
                "(loss-vs-simulated-seconds convergence records)")
      .add_string("objective", "logistic",
                  "training objective (logistic|least_squares)")
      .add_string("optimizer", "nesterov",
                  "training optimizer (nesterov|gd|heavy_ball|adagrad)")
      .add_int("features", 20, "training: feature dimension p")
      .add_int("examples_per_unit", 20,
               "training: examples per unit (logistic objective)")
      .add_double("learning_rate", 2.0, "training: learning rate mu0")
      .add_double("lr_decay", 0.0,
                  "training: inverse-time decay (mu_t = mu0/(1+decay*t))")
      .add_double("target_loss", 0.0,
                  "training: report time_to_target for this loss "
                  "(0 = unset)")
      .add_bool("stop_at_target", false,
                "training: stop as soon as target_loss is reached")
      .add_bool("loss_history", false,
                "training: record the per-iteration (seconds, loss) curve")
      .add_int("worker_timeout_ms", 10000,
               "process runtime: per-arrival wait deadline before the "
               "iteration's stragglers are abandoned (0 = wait forever)")
      .add_int("crash_worker", -1,
               "process runtime: SIGKILL this worker mid-iteration "
               "(-1 = no crash drill)")
      .add_int("crash_iteration", 0,
               "process runtime: iteration at which crash_worker dies");
}

std::optional<ExperimentConfig> config_from_flags(const CliFlags& flags) {
  ExperimentConfig config;

  config.scheme = flags.get_string("scheme");
  // "auto" and "all" defer the choice to the analytic oracle: the caller
  // resolves them via predict.hpp (resolve_auto_scheme / --predict)
  // before anything runs.
  if (config.scheme != "auto" && config.scheme != "all" &&
      core::SchemeRegistry::instance().find(config.scheme) == nullptr) {
    std::fprintf(stderr, "%s\n",
                 core::SchemeRegistry::instance()
                     .unknown_message(config.scheme)
                     .c_str());
    return std::nullopt;
  }

  config.scenario = flags.get_string("scenario");
  config.runtime = flags.get_string("runtime");

  const std::string policy = flags.get_string("on_failure");
  if (policy == "skip") {
    config.on_failure = engine::FailurePolicy::kSkipUpdate;
  } else if (policy == "partial") {
    config.on_failure = engine::FailurePolicy::kApplyPartial;
  } else {
    std::fprintf(stderr, "unknown --on_failure '%s' (choices: skip|partial)\n",
                 policy.c_str());
    return std::nullopt;
  }

  config.train = flags.get_bool("train");
  config.objective = flags.get_string("objective");
  if (config.objective != "logistic" && config.objective != "least_squares") {
    std::fprintf(stderr,
                 "unknown --objective '%s' (choices: logistic|least_squares)\n",
                 config.objective.c_str());
    return std::nullopt;
  }
  config.optimizer = flags.get_string("optimizer");
  if (config.optimizer != "nesterov" && config.optimizer != "gd" &&
      config.optimizer != "heavy_ball" && config.optimizer != "adagrad") {
    std::fprintf(
        stderr,
        "unknown --optimizer '%s' (choices: nesterov|gd|heavy_ball|adagrad)\n",
        config.optimizer.c_str());
    return std::nullopt;
  }

  // Counts are size_t: a negative value would wrap to a huge one, so it
  // is rejected here, naming the flag. --seed takes any 64-bit value.
  bool counts_valid = true;
  const auto count = [&](const char* name) {
    const std::int64_t value = flags.get_int(name);
    if (value < 0) {
      std::fprintf(stderr, "--%s must be >= 0, got %lld\n", name,
                   static_cast<long long>(value));
      counts_valid = false;
      return std::size_t{0};
    }
    return static_cast<std::size_t>(value);
  };
  config.num_workers = count("workers");
  config.num_units = count("units");
  config.load = count("load");
  config.iterations = count("iterations");
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.features = count("features");
  config.examples_per_unit = count("examples_per_unit");
  config.learning_rate = flags.get_double("learning_rate");
  config.lr_decay = flags.get_double("lr_decay");
  if (flags.get_double("target_loss") > 0.0) {
    config.target_loss = flags.get_double("target_loss");
  }
  config.stop_at_target = flags.get_bool("stop_at_target");
  config.record_loss_history = flags.get_bool("loss_history");

  config.worker_timeout_ms = flags.get_int("worker_timeout_ms");
  const std::int64_t crash_worker = flags.get_int("crash_worker");
  if (crash_worker >= 0) {
    config.crash_worker = static_cast<std::size_t>(crash_worker);
  }
  config.crash_iteration = count("crash_iteration");
  if (!counts_valid) {
    return std::nullopt;
  }

  try {
    config.runtime = check_runnable(config).name;  // canonicalize aliases
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return std::nullopt;
  }
  return config;
}

void check_scheme_shape(const ExperimentConfig& config) {
  const auto& registry = core::SchemeRegistry::instance();
  const core::SchemeEntry* scheme = registry.find(config.scheme);
  if (scheme == nullptr) {
    throw std::invalid_argument(registry.unknown_message(config.scheme));
  }
  const std::size_t n = config.num_workers;
  const std::size_t m = config.num_units;
  const std::size_t r = config.load;
  std::string shape = "n=" + std::to_string(n);
  shape += " m=" + std::to_string(m) + " r=" + std::to_string(r);
  const auto require = [&](bool holds, const char* rule) {
    if (!holds) {
      throw std::invalid_argument("scheme '" + scheme->name + "' requires " +
                                  rule + ", got " + shape);
    }
  };
  const std::string& name = scheme->name;
  require(n >= 1 && m >= 1, "n >= 1 and m >= 1");
  require(!scheme->caps.requires_units_equal_workers || m == n, "m == n");
  require(name != "uncoded" || m >= n, "m >= n");
  require(r >= 1, "r >= 1");
  require(!scheme->caps.requires_load_divides_workers || n % r == 0, "r | n");
  require(!scheme->caps.requires_units_equal_workers || r <= n, "r <= n");
  require(name != "simple_random" || r <= m, "r <= m");
  require(name != "bcc" || n >= (m - 1) / r + 1, "n >= ceil(m/r)");
}

RunRecord run_experiment(const ExperimentConfig& config) {
  const RuntimeEntry& runtime = check_runnable(config);
  check_scheme_shape(config);
  return runtime.factory()->run(config);
}

AsciiTable summary_table(const std::vector<RunRecord>& records) {
  AsciiTable table({"scheme", "recovery threshold", "communication time (s)",
                    "computation time (s)", "total running time (s)"});
  table.set_align(0, Align::kLeft);
  for (const auto& record : records) {
    table.add_row({record.scheme_display.empty() ? record.scheme
                                                 : record.scheme_display,
                   format_double(record.recovery_threshold, 1),
                   format_double(record.comm_time, 3),
                   format_double(record.compute_time, 3),
                   format_double(record.total_time, 3)});
  }
  return table;
}

double speedup_fraction(const RunRecord& ours, const RunRecord& baseline) {
  COUPON_ASSERT(baseline.total_time > 0.0);
  return 1.0 - ours.total_time / baseline.total_time;
}

}  // namespace coupon::driver
