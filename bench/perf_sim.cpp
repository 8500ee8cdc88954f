// Simulator throughput benchmark: iterations/sec of simulate_run for
// uncoded/CR/FR/BCC at several (n, m) sizes, emitted as machine-readable
// JSON. This is the perf-regression anchor for the simulation hot path:
// the committed baseline lives in BENCH_sim.json at the repo root and the
// CI perf-smoke job fails on a large slowdown against it (see
// scripts/perf_check.py and README "Benchmarks & figures").
//
//   # full grid (refreshing BENCH_sim.json)
//   $ bench_perf_sim --out BENCH_sim.json
//   # CI quick mode: same grid, ~10x fewer iterations per cell
//   $ bench_perf_sim --quick --out perf_quick.json
//
// Method: per cell, the scheme is constructed once (placement and coding
// matrix are not what we measure), then simulate_run executes the cell's
// iteration count; the cell is repeated --reps times and the fastest
// repetition wins (minimum-time estimator, robust to scheduler noise).
// Results are deterministic in everything but wall time.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/gradient_source.hpp"
#include "core/scheme_registry.hpp"
#include "data/batching.hpp"
#include "data/synthetic.hpp"
#include "driver/record.hpp"
#include "engine/engine.hpp"
#include "opt/opt.hpp"
#include "simulate/cluster_sim.hpp"
#include "stats/rng.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using namespace coupon;

struct Cell {
  const char* scheme;
  std::size_t workers;
  std::size_t units;
  std::size_t load;
  std::size_t iterations;  // full-mode count; quick mode divides by 10
  /// Training mode: run the TrainingEngine over the simulated provider
  /// (real gradients) instead of the timing-only kernel. Reported under
  /// the "train:<scheme>" key so perf_check matches the right baseline.
  bool train = false;
};

/// Quick (CI) mode skips rows above this worker count: the n = 10^5 and
/// 10^6 rows exist to pin million-worker scaling locally, not to spend
/// runner minutes (see scripts/perf_check.py's per-row time budget).
constexpr std::size_t kQuickMaxWorkers = 10'000;

/// The benchmark grid. Every scheme sees a small, the paper's scenario
/// one, and a large shape; all satisfy m == n (CR/FR) and r | n (FR).
/// The train rows gate the convergence path (engine + encode + decode)
/// at the paper-scale shapes (n in {20, 50, 100} — ROADMAP item 4's
/// training-path gap is tracked here). The large-n rows (10^3..10^6)
/// gate the threshold-selection kernel's million-worker scaling; CR is
/// absent there because its n x n coding matrix is quadratic in memory
/// by design. BCC loads grow with n to keep coverage failure rare
/// (failure prob ~ B * exp(-n/B), B = m/r).
const std::vector<Cell>& grid() {
  static const std::vector<Cell> cells = {
      {"uncoded", 20, 20, 4, 5000},  {"cr", 20, 20, 4, 5000},
      {"fr", 20, 20, 4, 5000},       {"bcc", 20, 20, 4, 5000},
      {"uncoded", 50, 50, 10, 2000}, {"cr", 50, 50, 10, 2000},
      {"fr", 50, 50, 10, 2000},      {"bcc", 50, 50, 10, 2000},
      {"uncoded", 100, 100, 10, 1000}, {"cr", 100, 100, 10, 1000},
      {"fr", 100, 100, 10, 1000},    {"bcc", 100, 100, 10, 1000},
      // Large-n scaling rows (selection kernel; DESIGN.md §7.4).
      {"uncoded", 1'000, 1'000, 10, 1000},
      {"fr", 1'000, 1'000, 10, 1000},
      {"bcc", 1'000, 1'000, 10, 1000},
      {"uncoded", 10'000, 10'000, 20, 200},
      {"fr", 10'000, 10'000, 20, 200},
      {"bcc", 10'000, 10'000, 20, 200},
      {"uncoded", 100'000, 100'000, 40, 30},
      {"fr", 100'000, 100'000, 40, 30},
      {"bcc", 100'000, 100'000, 40, 30},
      {"uncoded", 1'000'000, 1'000'000, 40, 5},
      {"bcc", 1'000'000, 1'000'000, 40, 5},
      // Training-path rows (TrainingEngine over the simulated provider).
      {"uncoded", 20, 20, 4, 2000, /*train=*/true},
      {"bcc", 20, 20, 4, 2000, /*train=*/true},
      {"uncoded", 50, 50, 10, 500, /*train=*/true},
      {"bcc", 50, 50, 10, 500, /*train=*/true},
      {"uncoded", 100, 100, 10, 200, /*train=*/true},
      {"bcc", 100, 100, 10, 200, /*train=*/true},
      // Gradient-coding training rows (r-unit messages, per-unit decode).
      {"gc_cyclic", 50, 50, 10, 500, /*train=*/true},
      {"sgc", 50, 50, 10, 500, /*train=*/true},
  };
  return cells;
}

struct Result {
  Cell cell;
  std::size_t iterations = 0;  // actually run per repetition
  std::size_t reps = 0;
  double best_seconds = 0.0;
  double iters_per_sec = 0.0;

  /// The perf_check matching key: "<scheme>" or "train:<scheme>".
  std::string key() const {
    return cell.train ? std::string("train:") + cell.scheme : cell.scheme;
  }
};

Result run_cell(const Cell& cell, std::size_t iterations, std::size_t reps) {
  const simulate::ClusterConfig cluster = simulate::ec2_cluster();

  core::SchemeConfig config;
  config.num_workers = cell.workers;
  config.num_units = cell.units;
  config.load = cell.load;
  config.bcc_seed_first_batches = cell.train;  // no failed train iterations

  stats::Rng build_rng(0xBE5C0000 + cell.workers);
  const auto scheme =
      core::SchemeRegistry::instance().create(cell.scheme, config, build_rng);

  // Training rows: a small logistic workload (the convergence path's
  // gradient cost scales with p and examples/unit; the gate targets the
  // engine + encode/decode overhead, not BLAS throughput).
  data::SyntheticProblem problem;
  std::optional<data::BatchPartition> partition;
  std::unique_ptr<core::GroupedBatchSource> source;
  if (cell.train) {
    constexpr std::size_t kFeatures = 20;
    constexpr std::size_t kExamplesPerUnit = 5;
    stats::Rng data_rng(0xDA7A + cell.workers);
    data::SyntheticConfig dconf;
    dconf.num_features = kFeatures;
    problem =
        data::generate_logreg(cell.units * kExamplesPerUnit, dconf, data_rng);
    partition.emplace(cell.units * kExamplesPerUnit, kExamplesPerUnit);
    source = std::make_unique<core::GroupedBatchSource>(problem.dataset,
                                                        *partition);
  }

  Result result;
  result.cell = cell;
  result.iterations = iterations;
  result.reps = reps;
  result.best_seconds = -1.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    stats::Rng rng(0x5EED + rep);
    WallTimer timer;
    double elapsed = 0.0;
    if (cell.train) {
      engine::SimulatedProvider provider(*scheme, *source, cluster, rng);
      engine::TrainingEngine protocol(*scheme, *source, provider);
      opt::NesterovGradient optimizer(
          source->dim(), opt::LearningRateSchedule::constant(2.0));
      engine::TrainOptions options;
      options.iterations = iterations;
      const auto report = protocol.train(optimizer, options);
      elapsed = timer.seconds();
      // A failed iteration skips the gradient/decode work under
      // measurement and would silently inflate train-iters/sec.
      if (report.failed_iterations != 0) {
        std::fprintf(stderr, "perf_sim: training run dropped iterations\n");
        std::exit(1);
      }
    } else {
      simulate::RunOptions options;
      options.iterations = iterations;
      options.record_trace = false;
      const auto run = simulate::simulate_run(*scheme, cluster, options, rng);
      elapsed = timer.seconds();
      // Touch the aggregate so the run cannot be optimized away.
      if (run.workers_heard.count() != iterations) {
        std::fprintf(stderr, "perf_sim: run dropped iterations\n");
        std::exit(1);
      }
    }
    if (result.best_seconds < 0.0 || elapsed < result.best_seconds) {
      result.best_seconds = elapsed;
    }
  }
  result.iters_per_sec =
      static_cast<double>(iterations) / result.best_seconds;
  return result;
}

void write_json(std::ostream& os, const std::vector<Result>& results,
                bool quick) {
  os << "{\n  \"benchmark\": \"perf_sim\",\n  \"mode\": \""
     << (quick ? "quick" : "full") << "\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"scheme\": \"%s\", \"workers\": %zu, \"units\": %zu, "
                  "\"load\": %zu, \"iterations\": %zu, \"reps\": %zu, "
                  "\"best_seconds\": %.6f, \"iters_per_sec\": %.1f}%s\n",
                  r.key().c_str(), r.cell.workers, r.cell.units, r.cell.load,
                  r.iterations, r.reps, r.best_seconds, r.iters_per_sec,
                  i + 1 == results.size() ? "" : ",");
    os << line;
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags
      .add_bool("quick", false,
                "CI mode: ~10x fewer iterations per cell (same grid keys)")
      .add_int("reps", 3, "repetitions per cell; fastest wins")
      .add_string("out", "-", "JSON output path ('-' = stdout)");
  if (!flags.parse(argc, argv)) {
    return 1;
  }
  const bool quick = flags.get_bool("quick");
  const auto reps = static_cast<std::size_t>(flags.get_int("reps"));

  std::vector<Result> results;
  results.reserve(grid().size());
  for (const Cell& cell : grid()) {
    if (quick && cell.workers > kQuickMaxWorkers) {
      continue;  // million-worker rows are local-only (see kQuickMaxWorkers)
    }
    const std::size_t iterations =
        quick ? std::max<std::size_t>(std::min<std::size_t>(100, cell.iterations),
                                      cell.iterations / 10)
              : cell.iterations;
    results.push_back(run_cell(cell, iterations, reps));
    const Result& r = results.back();
    std::fprintf(stderr, "%-13s n=%-4zu m=%-4zu r=%-3zu %8.0f iters/sec\n",
                 r.key().c_str(), r.cell.workers, r.cell.units, r.cell.load,
                 r.iters_per_sec);
  }

  const std::string out = flags.get_string("out");
  if (!driver::with_output_stream(
          out, [&](std::ostream& os) { write_json(os, results, quick); })) {
    return 1;
  }
  return 0;
}
