#include "driver/runtime_registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "driver/scenario_registry.hpp"
#include "util/names.hpp"

namespace coupon::driver {

RuntimeRegistry& RuntimeRegistry::instance() {
  static RuntimeRegistry registry;
  return registry;
}

RuntimeRegistry::RuntimeRegistry() {
  // Built-ins, in the presentation order the CLI help has always used.
  add({.name = "sim",
       .aliases = {"simulated", "simulate"},
       .description =
           "discrete-event cluster model: per-iteration latency traces, "
           "no gradients computed",
       .caps = {.simulated_clock = true,
                .honours_cluster_override = true,
                .honours_sim_only_scenarios = true},
       .factory = [] { return std::make_unique<SimulatedRuntime>(); }});
  add({.name = "threaded",
       .aliases = {"thread", "threads"},
       .description =
           "real master/worker threads training synthetic logistic "
           "regression over an in-process network",
       .caps = {.computes_gradients = true, .honours_elasticity = true},
       .factory = [] { return std::make_unique<ThreadedRuntime>(); }});
  add({.name = "process",
       .aliases = {"processes", "proc"},
       .description =
           "worker OS processes over framed stream sockets: real crash "
           "tolerance (SIGKILL -> EOF -> FailurePolicy), same protocol",
       .caps = {.computes_gradients = true,
                .honours_elasticity = true,
                .spawns_processes = true},
       .factory = [] { return std::make_unique<ProcessRuntime>(); }});
}

void RuntimeRegistry::add(RuntimeEntry entry) {
  if (entry.name.empty()) {
    throw std::invalid_argument("runtime registration requires a name");
  }
  if (!entry.factory) {
    throw std::invalid_argument("runtime '" + entry.name +
                                "' registered without a factory");
  }
  auto taken = [this](const std::string& spelling) {
    if (find(spelling) != nullptr) {
      throw std::invalid_argument("runtime name '" + spelling +
                                  "' is already registered");
    }
  };
  taken(entry.name);
  for (const auto& alias : entry.aliases) {
    taken(alias);
  }
  entries_.push_back(std::move(entry));
}

const RuntimeEntry* RuntimeRegistry::find(
    std::string_view name_or_alias) const {
  for (const auto& entry : entries_) {
    if (entry.name == name_or_alias) {
      return &entry;
    }
    for (const auto& alias : entry.aliases) {
      if (alias == name_or_alias) {
        return &entry;
      }
    }
  }
  return nullptr;
}

std::unique_ptr<Runtime> RuntimeRegistry::create(
    std::string_view name_or_alias) const {
  const RuntimeEntry* entry = find(name_or_alias);
  return entry == nullptr ? nullptr : entry->factory();
}

std::vector<std::string> RuntimeRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    out.push_back(entry.name);
  }
  return out;
}

std::string RuntimeRegistry::choices() const { return join_names(names()); }

std::string RuntimeRegistry::unknown_message(std::string_view name) const {
  return unknown_name_message("runtime", name, names());
}

const RuntimeEntry& check_runnable(const ExperimentConfig& config) {
  const RuntimeEntry* runtime =
      RuntimeRegistry::instance().find(config.runtime);
  if (runtime == nullptr) {
    throw std::invalid_argument(
        RuntimeRegistry::instance().unknown_message(config.runtime));
  }
  const ScenarioEntry* scenario =
      ScenarioRegistry::instance().resolve(config.scenario);
  if (scenario == nullptr) {
    throw std::invalid_argument(
        ScenarioRegistry::instance().unknown_message(config.scenario));
  }
  const RuntimeCapabilities& caps = runtime->caps;
  const std::string the_runtime = "; the " + runtime->name + " runtime ";
  if (scenario->sim_only && !caps.honours_sim_only_scenarios) {
    throw std::invalid_argument(
        "scenario '" + config.scenario +
        "' only varies simulator-side knobs" + the_runtime +
        "cannot express them — use --runtime sim");
  }
  if (scenario->live_only && !caps.honours_elasticity) {
    throw std::invalid_argument(
        "scenario '" + config.scenario +
        "' needs a live cluster (workers join/leave)" + the_runtime +
        "cannot run it — use --runtime threaded or process");
  }
  if (config.cluster_override && !caps.honours_cluster_override) {
    throw std::invalid_argument(
        "cluster_override describes the simulated cluster" + the_runtime +
        "cannot honour it — use --runtime sim");
  }
  if (config.crash_worker) {
    if (!caps.spawns_processes) {
      throw std::invalid_argument(
          "crash_worker injects a real worker-process SIGKILL" + the_runtime +
          "has no processes to kill — use --runtime process");
    }
    if (*config.crash_worker >= config.num_workers) {
      throw std::invalid_argument(
          "crash_worker " + std::to_string(*config.crash_worker) +
          " out of range (n = " + std::to_string(config.num_workers) + ")");
    }
  }
  const auto require_one_of = [](const char* kind, const std::string& name,
                                  const std::vector<std::string>& choices) {
    if (std::find(choices.begin(), choices.end(), name) == choices.end()) {
      throw std::invalid_argument(unknown_name_message(kind, name, choices));
    }
  };
  require_one_of("objective", config.objective, {"logistic", "least_squares"});
  require_one_of("optimizer", config.optimizer,
                 {"nesterov", "gd", "heavy_ball", "adagrad"});
  if (config.worker_timeout_ms < 0) {
    throw std::invalid_argument(
        "worker_timeout_ms must be >= 0 (0 = wait forever), got " +
        std::to_string(config.worker_timeout_ms));
  }
  return *runtime;
}

}  // namespace coupon::driver
