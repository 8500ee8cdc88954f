#include "driver/scenario_registry.hpp"

#include <algorithm>
#include <charconv>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "simulate/latency_model.hpp"
#include "util/names.hpp"

namespace coupon::driver {

namespace {

/// Threaded-runtime counterpart of the EC2 calibration: injected
/// shift-exponential sleeps.
runtime::StragglerInjection shifted_exp_straggler() {
  runtime::StragglerInjection s;
  s.enabled = true;
  s.shift_ms_per_unit = 0.05;
  s.straggle = 1.0;
  return s;
}

/// The baseline dual view every built-in scenario starts from.
Scenario ec2_baseline() {
  Scenario s;
  s.cluster = simulate::ec2_cluster();
  s.straggler = shifted_exp_straggler();
  return s;
}

/// Elastic scenario: `count` workers (the highest-indexed ones) leave at
/// iteration `leave` and rejoin at `rejoin`, under no_stragglers timing
/// so the absence window dominates the trace.
Scenario elastic_scenario(std::size_t count, std::size_t leave,
                          std::size_t rejoin, std::size_t num_workers) {
  Scenario s = ec2_baseline();
  s.cluster.compute_straggle = 1e6;
  s.straggler.enabled = false;
  count = std::min(count, num_workers);
  for (std::size_t k = 0; k < count; ++k) {
    s.elasticity.windows.push_back({.worker = num_workers - 1 - k,
                                    .leave_iteration = leave,
                                    .rejoin_iteration = rejoin});
  }
  return s;
}

std::optional<std::size_t> parse_size(std::string_view text) {
  std::size_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

ScenarioRegistry::ScenarioRegistry() {
  add({.name = "shifted_exp",
       .description =
           "homogeneous shift-exponential compute (Eq. 15), EC2 calibration",
       .sim_only = false,
       .builder = [](std::size_t) { return ec2_baseline(); },
       .param_builder = {}});
  add({.name = "hetero",
       .description =
           "5% fast workers (mu=20), 95% slow (mu=1), Fig. 5 shape (sim only)",
       .sim_only = true,
       .builder = [](std::size_t num_workers) {
         Scenario s = ec2_baseline();
         // At least one fast worker even for tiny clusters.
         const std::size_t fast = std::min(
             num_workers, std::max<std::size_t>(1, num_workers / 20));
         s.cluster.worker_overrides.assign(
             num_workers,
             simulate::WorkerLatency{s.cluster.compute_shift, 1.0});
         for (std::size_t i = num_workers - fast; i < num_workers; ++i) {
           s.cluster.worker_overrides[i].compute_straggle = 20.0;
         }
         return s;
       },
       .param_builder = {}});
  add({.name = "lossy",
       .description = "shifted_exp plus 5% i.i.d. message loss (sim only)",
       .sim_only = true,
       .builder = [](std::size_t) {
         Scenario s = ec2_baseline();
         s.cluster.drop_probability = 0.05;
         return s;
       },
       .param_builder = {}});
  add({.name = "fast_network",
       .description =
           "10x faster master ingress (compute-dominated regime; sim only)",
       .sim_only = true,
       .builder = [](std::size_t) {
         Scenario s = ec2_baseline();
         s.cluster.unit_transfer_seconds /= 10.0;
         return s;
       },
       .param_builder = {}});
  add({.name = "no_stragglers",
       .description = "near-deterministic compute, no loss (best case)",
       .sim_only = false,
       .builder = [](std::size_t) {
         Scenario s = ec2_baseline();
         s.cluster.compute_straggle = 1e6;  // exponential tail ~ 0
         s.straggler.enabled = false;
         return s;
       },
       .param_builder = {}});

  // One scenario per latency model (latency_model.hpp): the regimes the
  // paper's Eq. 15 analysis excludes. All sim-only — the threaded
  // runtime's injected sleeps only speak shift-exponential.
  add({.name = "heavy_tail",
       .description =
           "Pareto(alpha=1.5) compute — infinite variance, Karakus-style "
           "heavy tail (sim only)",
       .sim_only = true,
       .builder = [](std::size_t) {
         Scenario s = ec2_baseline();
         s.cluster.latency_model = [](std::size_t) {
           return std::make_unique<simulate::ParetoModel>(
               /*scale_per_unit=*/1e-3, /*shape=*/1.5);
         };
         return s;
       },
       .param_builder = {}});
  add({.name = "weibull",
       .description =
           "Weibull(k=0.7) compute — stretched-exponential tail (sim only)",
       .sim_only = true,
       .builder = [](std::size_t) {
         Scenario s = ec2_baseline();
         s.cluster.latency_model = [](std::size_t) {
           return std::make_unique<simulate::WeibullModel>(
               /*shape=*/0.7, /*scale_per_unit=*/2e-3);
         };
         return s;
       },
       .param_builder = {}});
  add({.name = "bursty",
       .description =
           "each worker slow this iteration w.p. 0.1, by 10x — transient "
           "slowdowns (sim only)",
       .sim_only = true,
       .builder = [](std::size_t) {
         Scenario s = ec2_baseline();
         const auto base = s.cluster;
         s.cluster.latency_model = [base](std::size_t) {
           return std::make_unique<simulate::BimodalSlowdownModel>(
               base.compute_shift, base.compute_straggle,
               /*slow_probability=*/0.1, /*slow_factor=*/10.0);
         };
         return s;
       },
       .param_builder = {}});
  add({.name = "markov",
       .description =
           "two-state persistent stragglers: enter slow (10x) w.p. 0.05, "
           "exit w.p. 0.25 (sim only)",
       .sim_only = true,
       .builder = [](std::size_t) {
         Scenario s = ec2_baseline();
         const auto base = s.cluster;
         s.cluster.latency_model = [base](std::size_t num_workers) {
           return std::make_unique<simulate::MarkovStragglerModel>(
               num_workers, base.compute_shift, base.compute_straggle,
               /*slow_factor=*/10.0, /*p_enter=*/0.05, /*p_exit=*/0.25);
         };
         return s;
       },
       .param_builder = {}});
  // The join/leave drill for the live runtimes (threaded, process):
  // workers go absent for a window of iterations and re-enlist on the
  // next broadcast. live_only — simulated workers cannot leave.
  add({.name = "elastic",
       .description =
           "n/5 workers leave at iteration 3, rejoin at 8; parameterize "
           "as elastic:<count>@<leave>-<rejoin> (live runtimes only)",
       .live_only = true,
       .builder =
           [](std::size_t num_workers) {
             const std::size_t count =
                 std::max<std::size_t>(1, num_workers / 5);
             return elastic_scenario(count, 3, 8, num_workers);
           },
       .param_builder =
           [](std::string_view arg, std::size_t num_workers) {
             // "<count>@<leave>-<rejoin>", e.g. "2@3-8".
             const std::size_t at = arg.find('@');
             const std::size_t dash = arg.find('-', at + 1);
             std::optional<std::size_t> count, leave, rejoin;
             if (at != std::string_view::npos &&
                 dash != std::string_view::npos) {
               count = parse_size(arg.substr(0, at));
               leave = parse_size(arg.substr(at + 1, dash - at - 1));
               rejoin = parse_size(arg.substr(dash + 1));
             }
             if (!count || !leave || !rejoin || *leave >= *rejoin) {
               throw std::invalid_argument(
                   "elastic scenario argument must be "
                   "'<count>@<leave>-<rejoin>' with leave < rejoin, got "
                   "'elastic:" +
                   std::string(arg) + "'");
             }
             return elastic_scenario(*count, *leave, *rejoin, num_workers);
           }});
  add({.name = "trace",
       .description =
           "replay per-worker compute latencies from a CSV file; select "
           "as trace:<path> (sim only)",
       .sim_only = true,
       .builder = {},
       .param_builder = [](std::string_view arg, std::size_t) {
         Scenario s = ec2_baseline();
         const std::string path(arg);
         s.cluster.latency_model = [path](std::size_t num_workers) {
           return std::make_unique<simulate::TraceReplayModel>(path,
                                                              num_workers);
         };
         return s;
       }});
}

void ScenarioRegistry::add(ScenarioEntry entry) {
  if (entry.name.empty()) {
    throw std::invalid_argument("scenario registration requires a name");
  }
  if (!entry.builder && !entry.param_builder) {
    throw std::invalid_argument("scenario '" + entry.name +
                                "' registered without a builder");
  }
  if (find(entry.name) != nullptr) {
    throw std::invalid_argument("scenario name '" + entry.name +
                                "' is already registered");
  }
  entries_.push_back(std::move(entry));
}

const ScenarioEntry* ScenarioRegistry::find(std::string_view name) const {
  for (const auto& entry : entries_) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

const ScenarioEntry* ScenarioRegistry::resolve(std::string_view name) const {
  const ScenarioEntry* exact = find(name);
  if (exact != nullptr) {
    return exact->builder ? exact : nullptr;  // param-only needs an arg
  }
  const std::size_t colon = name.find(':');
  if (colon == std::string_view::npos) {
    return nullptr;
  }
  const ScenarioEntry* entry = find(name.substr(0, colon));
  return entry != nullptr && entry->param_builder ? entry : nullptr;
}

Scenario ScenarioRegistry::build(std::string_view name,
                                 std::size_t num_workers) const {
  const ScenarioEntry* entry = resolve(name);
  if (entry == nullptr) {
    throw std::invalid_argument(unknown_message(name));
  }
  Scenario scenario =
      name == entry->name
          ? entry->builder(num_workers)
          : entry->param_builder(name.substr(entry->name.size() + 1),
                                 num_workers);
  scenario.name = std::string(name);  // full spelling, e.g. "trace:<path>"
  scenario.description = entry->description;
  scenario.sim_only = entry->sim_only;
  scenario.live_only = entry->live_only;
  return scenario;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    out.push_back(entry.name);
  }
  return out;
}

std::string ScenarioRegistry::choices() const { return join_names(names()); }

std::string ScenarioRegistry::unknown_message(std::string_view name) const {
  // A parameterized-only entry selected bare is not "unknown" — explain
  // the name:arg spelling instead of suggesting the name to itself.
  const ScenarioEntry* exact = find(name);
  if (exact != nullptr && !exact->builder) {
    return "scenario '" + std::string(name) +
           "' requires an argument; select it as '" + exact->name +
           ":<arg>'";
  }
  return unknown_name_message("scenario", name, names());
}

}  // namespace coupon::driver
