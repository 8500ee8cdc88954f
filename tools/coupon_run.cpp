// Unified experiment runner: scheme x straggler scenario x runtime from
// CLI flags, CSV/JSONL out. Three modes:
//
//   # one run: per-iteration trace CSV (sim) or summary CSV (threaded)
//   $ coupon_run --scheme bcc --scenario shifted_exp --runtime sim
//   $ coupon_run --scheme cr --scenario no_stragglers --runtime threaded
//         --workers 8 --units 8 --load 2 --iterations 20 --out run.csv
//
//   # convergence: real gradients over simulated time (summary CSV with
//   # final_loss / time_to_target)
//   $ coupon_run --scheme bcc --scenario shifted_exp --runtime sim --train
//         --target_loss 0.5 --iterations 50
//
//   # everything the registries know about
//   $ coupon_run --list
//
//   # analytic oracle: exact E[T]/quantiles/failure ranking, zero
//   # simulation; '--scheme auto' runs whatever the oracle ranks best
//   $ coupon_run --predict --scheme all --loads 2,5,10,25
//   $ coupon_run --scheme auto --scenario lossy
//
//   # parallel cartesian sweep, one summary CSV row + JSONL object per cell
//   $ coupon_run --sweep --schemes bcc,cr --scenarios shifted_exp,lossy
//         --loads 2,5,10 --iterations 20 --out sweep.csv --jsonl sweep.jsonl
//
// Sweeps run on a thread pool (--threads, 0 = hardware, 1 = serial;
// process-runtime cells always run serially) with per-cell deterministic
// seeding: the output is bit-identical to a serial run, and any row
// reproduces as a single coupon_run invocation. A
// run-level summary is always printed to stderr so stdout stays clean
// CSV when --out=-.

#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analytic/dist.hpp"
#include "analytic/scheme_model.hpp"
#include "core/scheme_registry.hpp"
#include "driver/driver.hpp"
#include "driver/predict.hpp"
#include "driver/runtime_registry.hpp"
#include "driver/sweep.hpp"
#include "simulate/cluster_config.hpp"
#include "util/util.hpp"

namespace {

using namespace coupon;

/// Splits "a,b,c" into {"a","b","c"}; empty input -> empty list.
std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size() && !text.empty()) {
    const std::size_t comma = text.find(',', begin);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    out.push_back(text.substr(begin, end - begin));
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  return out;
}

/// Parses "2,5,10" into sizes; returns false with a diagnostic on junk.
bool parse_size_list(const std::string& flag, const std::string& text,
                     std::vector<std::size_t>& out) {
  for (const auto& item : split_list(text)) {
    try {
      std::size_t pos = 0;
      const long long value = std::stoll(item, &pos);
      if (pos != item.size() || value < 0) {
        throw std::invalid_argument(item);
      }
      out.push_back(static_cast<std::size_t>(value));
    } catch (const std::exception&) {
      std::fprintf(stderr, "--%s: '%s' is not a non-negative integer\n",
                   flag.c_str(), item.c_str());
      return false;
    }
  }
  return true;
}

/// True when the scenario's latency law reduces to a closed form the
/// analytic oracle can evaluate (probed at a representative size).
bool scenario_is_analytic(const std::string& name) {
  try {
    const auto scenario =
        coupon::driver::ScenarioRegistry::instance().build(name, 50);
    if (scenario.live_only) {
      return false;
    }
    const auto law =
        simulate::make_latency_model(scenario.cluster, 50)->law();
    return analytic::ComputeDist::from_law(law, 1.0, nullptr).has_value();
  } catch (const std::exception&) {
    return false;
  }
}

int list_registries() {
  std::printf("schemes:\n");
  const auto& schemes = core::SchemeRegistry::instance();
  for (const auto& name : schemes.names()) {
    const auto* entry = schemes.find(name);
    std::string tags;
    if (entry->caps.supports_partial_decode) {
      tags += " [partial-decode]";
    }
    if (entry->caps.requires_units_equal_workers) {
      tags += " [m==n]";
    }
    if (entry->caps.requires_load_divides_workers) {
      tags += " [r|n]";
    }
    if (entry->caps.approximate_recovery) {
      tags += " [approx]";
    }
    if (analytic::AnalyticModelRegistry::instance().find(name) != nullptr) {
      tags += " [analytic]";
    }
    std::string aliases;
    for (const auto& alias : entry->aliases) {
      aliases += aliases.empty() ? alias : ", " + alias;
    }
    if (!aliases.empty()) {
      aliases = " (aliases: " + aliases + ")";
    }
    std::printf("  %-14s%s\n      %s%s\n", entry->name.c_str(), tags.c_str(),
                entry->description.c_str(), aliases.c_str());
  }
  std::printf("\nscenarios:\n");
  const auto& scenarios = coupon::driver::ScenarioRegistry::instance();
  for (const auto& name : scenarios.names()) {
    const auto* entry = scenarios.find(name);
    // Parameterized entries are selected as "name:<arg>".
    const std::string spelling =
        entry->param_builder && !entry->builder ? entry->name + ":<arg>"
                                                : entry->name;
    std::string tags;
    if (entry->sim_only) {
      tags += " [sim only]";
    }
    if (entry->live_only) {
      tags += " [live only]";
    }
    if (scenario_is_analytic(entry->name)) {
      tags += " [analytic]";
    }
    std::printf("  %-14s%s\n      %s\n", spelling.c_str(), tags.c_str(),
                entry->description.c_str());
  }
  std::printf("\nruntimes:\n");
  const auto& runtimes = coupon::driver::RuntimeRegistry::instance();
  for (const auto& name : runtimes.names()) {
    const auto* entry = runtimes.find(name);
    std::string tags;
    if (entry->caps.computes_gradients) {
      tags += " [trains]";
    }
    if (entry->caps.simulated_clock) {
      tags += " [simulated-clock]";
    }
    if (entry->caps.honours_elasticity) {
      tags += " [elastic]";
    }
    if (entry->caps.spawns_processes) {
      tags += " [processes]";
    }
    std::string aliases;
    for (const auto& alias : entry->aliases) {
      aliases += aliases.empty() ? alias : ", " + alias;
    }
    if (!aliases.empty()) {
      aliases = " (aliases: " + aliases + ")";
    }
    std::printf("  %-14s%s\n      %s%s\n", entry->name.c_str(), tags.c_str(),
                entry->description.c_str(), aliases.c_str());
  }
  std::printf(
      "\nanalytic models (--predict / --scheme auto; [analytic]-tagged "
      "scheme x scenario pairs have exact oracles):\n");
  const auto& models = analytic::AnalyticModelRegistry::instance();
  for (const auto& name : models.names()) {
    const auto* model = models.find(name);
    std::printf("  %-14s\n      %s\n", name.c_str(),
                std::string(model->description()).c_str());
  }
  return 0;
}

int run_predict(const CliFlags& flags,
                const coupon::driver::ExperimentConfig& config) {
  std::vector<std::size_t> loads;
  if (!parse_size_list("loads", flags.get_string("loads"), loads)) {
    return 1;
  }
  try {
    const auto candidates =
        coupon::driver::predict_candidates(config, loads);
    const auto report = coupon::driver::predict_report(config, candidates);
    std::fputs(coupon::driver::render_predict_report(report).c_str(),
               stdout);
    if (!report.ranked.empty()) {
      const auto& best = report.ranked.front();
      std::fprintf(stderr,
                   "predicted best: %s r=%zu | scenario=%s n=%zu m=%zu "
                   "seed=%llu | E[T]=%.4fs (exact, no simulation)\n",
                   best.scheme.c_str(), best.load, config.scenario.c_str(),
                   config.num_workers, config.num_units,
                   static_cast<unsigned long long>(config.seed),
                   best.expected_time);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "predict failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

int run_single(const coupon::driver::ExperimentConfig& config,
               const std::string& out_path) {
  coupon::driver::RunRecord record;
  try {
    record = coupon::driver::run_experiment(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "experiment failed: %s\n", e.what());
    return 1;
  }

  // Timing-only simulated runs emit the per-iteration trace schema
  // (header-only at --iterations 0); training runs (threaded, or sim
  // --train) a summary row with final loss / train accuracy /
  // time_to_target.
  const bool trained = record.final_loss.has_value();
  const auto format = record.runtime == "sim" && !trained
                          ? coupon::driver::RecordFormat::kTraceCsv
                          : coupon::driver::RecordFormat::kSummaryCsv;
  if (!coupon::driver::write_records_to_path(out_path, {record}, format)) {
    return 1;
  }

  std::fprintf(stderr,
               "%s | scenario=%s runtime=%s n=%zu m=%zu r=%zu iters=%zu | "
               "mean K=%.2f total=%.3fs failures=%zu workers_lost=%zu\n",
               record.scheme_display.c_str(), record.scenario.c_str(),
               record.runtime.c_str(), record.num_workers, record.num_units,
               record.load, record.iterations, record.recovery_threshold,
               record.total_time, record.failures, record.workers_lost);
  if (trained) {
    std::string extras;
    if (record.train_accuracy) {
      extras += " accuracy=" + std::to_string(*record.train_accuracy);
    }
    if (record.time_to_target) {
      extras += " time_to_target=" + std::to_string(*record.time_to_target) +
                "s";
    }
    std::fprintf(stderr, "final loss=%.6f%s\n", *record.final_loss,
                 extras.c_str());
  }
  return 0;
}

int run_sweep_mode(const CliFlags& flags,
                   const coupon::driver::ExperimentConfig& base) {
  const std::int64_t threads = flags.get_int("threads");
  if (threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0, got %lld\n",
                 static_cast<long long>(threads));
    return 1;
  }

  coupon::driver::SweepPlan plan;
  plan.base = base;
  // Sweep mode renders summary CSV + trace-less JSONL only: skip
  // materializing per-iteration traces in every simulated cell.
  plan.base.record_trace = false;
  plan.schemes = split_list(flags.get_string("schemes"));
  plan.scenarios = split_list(flags.get_string("scenarios"));
  if (!parse_size_list("workers_axis", flags.get_string("workers_axis"),
                       plan.workers) ||
      !parse_size_list("units_axis", flags.get_string("units_axis"),
                       plan.units) ||
      !parse_size_list("loads", flags.get_string("loads"), plan.loads) ||
      !parse_size_list("iterations_axis",
                       flags.get_string("iterations_axis"),
                       plan.iterations)) {
    return 1;
  }
  std::vector<std::size_t> seeds;
  if (!parse_size_list("seeds", flags.get_string("seeds"), seeds)) {
    return 1;
  }
  plan.seeds.assign(seeds.begin(), seeds.end());
  // An empty units axis makes m track n. That is what an n axis wants;
  // with neither axis, --units names m, as it does in a single run.
  if (plan.workers.empty() && plan.units.empty()) {
    plan.units = {base.num_units};
  }

  // Streams: open both before running so path errors surface immediately.
  const std::string out_path = flags.get_string("out");
  const std::string jsonl_path = flags.get_string("jsonl");
  std::ofstream csv_file;
  std::ostream* csv_os = nullptr;
  if (out_path == "-") {
    csv_os = &std::cout;
  } else {
    csv_file.open(out_path);
    if (!csv_file) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   out_path.c_str());
      return 1;
    }
    csv_os = &csv_file;
  }
  std::ofstream jsonl_file;
  if (!jsonl_path.empty()) {
    jsonl_file.open(jsonl_path);
    if (!jsonl_file) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   jsonl_path.c_str());
      return 1;
    }
  }

  coupon::driver::CsvSummarySink csv_sink(*csv_os);
  std::unique_ptr<coupon::driver::JsonlSink> jsonl_sink;
  std::vector<coupon::driver::RecordSink*> sinks = {&csv_sink};
  if (jsonl_file.is_open()) {
    jsonl_sink = std::make_unique<coupon::driver::JsonlSink>(jsonl_file);
    sinks.push_back(jsonl_sink.get());
  }
  coupon::driver::TeeSink tee(sinks);

  coupon::driver::SweepOptions options;
  options.threads = static_cast<std::size_t>(threads);
  options.sink = &tee;

  std::vector<coupon::driver::RunRecord> records;
  try {
    records = coupon::driver::run_sweep(plan, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep failed: %s\n", e.what());
    return 1;
  }

  csv_os->flush();
  if (csv_file.is_open()) {
    csv_file.close();  // flush and surface truncated writes
  }
  if (!*csv_os) {
    std::fprintf(stderr, "error writing '%s'\n", out_path.c_str());
    return 1;
  }
  if (jsonl_file.is_open()) {
    jsonl_file.close();
    if (!jsonl_file) {
      std::fprintf(stderr, "error writing '%s'\n", jsonl_path.c_str());
      return 1;
    }
  }

  std::fprintf(stderr, "sweep: %zu cells | runtime=%s threads=%s\n",
               records.size(), base.runtime.c_str(),
               options.threads == 0 ? "auto"
                                    : std::to_string(options.threads).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  coupon::driver::add_experiment_flags(flags);
  flags.add_string("out", "-", "CSV output path ('-' = stdout)")
      .add_bool("list", false,
                "list registered schemes, scenarios, and runtimes")
      .add_bool("sweep", false,
                "run a cartesian sweep (see the axis flags below)")
      .add_string("schemes", "", "sweep: comma-separated scheme axis")
      .add_string("scenarios", "", "sweep: comma-separated scenario axis")
      .add_string("workers_axis", "", "sweep: comma-separated n axis")
      .add_string("units_axis", "",
                  "sweep: comma-separated m axis (default: m tracks the n "
                  "axis, else --units)")
      .add_string("loads", "", "sweep: comma-separated r axis")
      .add_string("iterations_axis", "",
                  "sweep: comma-separated iterations axis")
      .add_string("seeds", "", "sweep: comma-separated seed axis")
      .add_string("jsonl", "", "sweep: also write one JSON object per cell")
      .add_int("threads", 0,
               "sweep: worker threads (0 = hardware, 1 = serial; "
               "process cells always run serially)")
      .add_bool("predict", false,
                "rank (scheme, r) candidates with the analytic oracle — "
                "exact E[T]/quantiles/failure, zero simulation (use "
                "--scheme all and --loads for the candidate grid)");
  if (!flags.parse(argc, argv)) {
    return 1;
  }

  if (flags.get_bool("list")) {
    return list_registries();
  }

  auto config = coupon::driver::config_from_flags(flags);
  if (!config) {
    return 1;
  }

  if (flags.get_bool("predict")) {
    return run_predict(flags, *config);
  }
  if (config->scheme == "all") {
    std::fprintf(stderr,
                 "--scheme all is a --predict candidate grid; pick a "
                 "concrete scheme (or auto) to run\n");
    return 1;
  }

  if (config->scheme == "auto") {
    if (flags.get_bool("sweep")) {
      std::fprintf(stderr,
                   "--scheme auto resolves one cell; in --sweep mode pass "
                   "an explicit --schemes axis instead\n");
      return 1;
    }
    try {
      config->scheme = coupon::driver::resolve_auto_scheme(*config);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::fprintf(stderr, "--scheme auto -> %s (analytic oracle)\n",
                 config->scheme.c_str());
  }

  if (flags.get_bool("sweep")) {
    return run_sweep_mode(flags, *config);
  }
  return run_single(*config, flags.get_string("out"));
}
