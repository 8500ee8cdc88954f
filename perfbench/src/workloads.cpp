#include "workloads.hpp"

#include <algorithm>
#include <future>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "checks.hpp"
#include "core/scheme_registry.hpp"
#include "data/batching.hpp"
#include "data/synthetic.hpp"
#include "driver/scenario_registry.hpp"
#include "engine/simulated_provider.hpp"
#include "opt/logistic.hpp"
#include "opt/optimizer.hpp"
#include "runtime/process_cluster.hpp"
#include "simulate/cluster_sim.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace core = coupon::core;
namespace data = coupon::data;
namespace driver = coupon::driver;
namespace engine = coupon::engine;
namespace opt = coupon::opt;
namespace analytic = coupon::analytic;
namespace simulate = coupon::simulate;
using coupon::stats::Rng;

namespace {

/// Pool threads of the sweep workloads: two, so each of the four vCPUs
/// the benchmark was tuned on keeps headroom, and many small tasks per
/// thread (see README.md).
constexpr std::size_t kPoolThreads = 2;
/// `setup_s` is the median of at least this many builds per run, and of
/// as many more as fit in `kSetupSeconds`.
constexpr int kSetupReps = 7;
constexpr double kSetupSeconds = 2.0;
/// Independent iterations behind each sweep cell's sigma estimate.
constexpr std::size_t kSigmaSamples = 400;
/// Threads of the output checks, which run after the timed phase.
constexpr std::size_t kCheckThreads = 4;

core::SchemeConfig scheme_config(const driver::ExperimentConfig& config,
                                 bool default_seed_first_batches) {
  core::SchemeConfig sconf;
  sconf.num_workers = config.num_workers;
  sconf.num_units = config.num_units;
  sconf.load = config.load;
  sconf.bcc_seed_first_batches =
      config.bcc_seed_first_batches.value_or(default_seed_first_batches);
  return sconf;
}

/// The synthetic logistic problem of one training cell, drawn exactly as
/// the driver draws it. Never moved once built: the source references the
/// dataset and the partition.
struct TrainData {
  data::SyntheticProblem problem;
  std::optional<data::BatchPartition> partition;
  std::unique_ptr<core::GroupedBatchSource> source;
};

std::unique_ptr<TrainData> build_train_data(std::size_t units,
                                            std::size_t examples_per_unit,
                                            std::size_t features, Rng& rng) {
  auto out = std::make_unique<TrainData>();
  data::SyntheticConfig dconf;
  dconf.num_features = features;
  const std::size_t examples = units * examples_per_unit;
  out->problem = data::generate_logreg(examples, dconf, rng);
  out->partition.emplace(examples, examples_per_unit);
  out->source = std::make_unique<core::GroupedBatchSource>(
      out->problem.dataset, *out->partition);
  return out;
}

const simulate::ClusterConfig& cluster_of(const driver::ExperimentConfig& c,
                                          const driver::Scenario& scenario) {
  return c.cluster_override ? *c.cluster_override : scenario.cluster;
}

/// The process workload's data and scheme, drawn in the process runtime's
/// order: data first, then the scheme.
struct LiveCell {
  std::unique_ptr<TrainData> data;
  std::unique_ptr<core::Scheme> scheme;
};

LiveCell build_live_cell(const LiveShape& shape, std::uint64_t seed) {
  Rng rng(seed);
  LiveCell cell;
  cell.data = build_train_data(shape.workers, shape.examples_per_unit,
                               shape.features, rng);
  core::SchemeConfig sconf;
  sconf.num_workers = shape.workers;
  sconf.num_units = shape.workers;
  sconf.load = shape.load;
  sconf.bcc_seed_first_batches = true;
  cell.scheme = core::SchemeRegistry::instance().create(shape.scheme, sconf, rng);
  return cell;
}

/// max |a_i - b_i| ÷ max |b_i|; infinite when the sizes differ.
double relative_error(const std::vector<double>& a,
                      const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return HUGE_VAL;
  }
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

double mean_of(double total, std::uint64_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

/// The per-layer metrics of a traced run; layers a workload does not
/// exercise stay 0.
struct Layers {
  double draw_us = 0, select_us = 0, scan_us = 0, prefix_use = 0;
  double draw_share_n100 = 0, draws_per_iter = 0;
  double offer_us = 0, kept_share = 0, encode_us = 0, decode_us = 0;
  double unit_gradients_per_iter = 0, gradient_reuse = 0;
  double begin_us = 0, engine_self_us = 0;
  double gradient_us = 0, loss_us = 0, step_us = 0, gradient_share = 0;
  double serial_iter_us = 0;
  double pool_efficiency = 0, batch_gain = 0;
  double master_wait_us = 0, worker_compute_us = 0, overhead_ratio = 0;
  double bytes_per_iter = 0, codec_us = 0;
  double trace_overhead = 0, trace_iter_us = 0;
};

void emit_layers(const Layers& l, Result& r) {
  r.add("simulate.draw_us", l.draw_us, "us");
  r.add("simulate.select_us", l.select_us, "us");
  r.add("simulate.scan_us", l.scan_us, "us");
  r.add("simulate.prefix_use", l.prefix_use, "ratio");
  r.add("simulate.draw_share_n100", l.draw_share_n100, "ratio");
  r.add("stats.draws_per_iter", l.draws_per_iter, "count");
  r.add("core.offer_us", l.offer_us, "us");
  r.add("core.kept_share", l.kept_share, "ratio");
  r.add("core.encode_us", l.encode_us, "us");
  r.add("core.decode_us", l.decode_us, "us");
  r.add("core.unit_gradients_per_iter", l.unit_gradients_per_iter, "count");
  r.add("core.gradient_reuse", l.gradient_reuse, "ratio");
  r.add("engine.begin_us", l.begin_us, "us");
  r.add("engine.self_us", l.engine_self_us, "us");
  r.add("opt.gradient_us", l.gradient_us, "us");
  r.add("opt.loss_us", l.loss_us, "us");
  r.add("opt.step_us", l.step_us, "us");
  r.add("opt.gradient_share", l.gradient_share, "ratio");
  r.add("opt.serial_iter_us", l.serial_iter_us, "us");
  r.add("driver.pool_efficiency", l.pool_efficiency, "ratio");
  r.add("driver.batch_gain", l.batch_gain, "ratio");
  r.add("runtime.master_wait_us", l.master_wait_us, "us");
  r.add("runtime.worker_compute_us", l.worker_compute_us, "us");
  r.add("runtime.overhead_ratio", l.overhead_ratio, "ratio");
  r.add("comm.bytes_per_iter", l.bytes_per_iter, "B");
  r.add("comm.codec_us", l.codec_us, "us");
  r.add("trace.overhead", l.trace_overhead, "ratio");
  r.add("trace.iter_us", l.trace_iter_us, "us");
}

/// `peak_rss_mb` is sampled by the caller right after the timed phase, so
/// the output checks' own memory never counts.
void emit_end_to_end(Result& r, double iters_per_s, double iter_p50_us,
                     double setup_s, double peak_rss_mb) {
  r.add("iters_per_s", iters_per_s, "1/s");
  r.add("iter_p50_us", iter_p50_us, "us");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mb, "MiB");
}

std::string tail_note(const std::vector<double>& seconds) {
  std::ostringstream out;
  out << "iteration wall: p50 " << fmt(1e6 * median(seconds)) << " us, p99 "
      << fmt(1e6 * quantile(seconds, 0.99)) << " us over " << seconds.size()
      << " samples (p99 carries no bound: it does not repeat)";
  return out.str();
}

/// Median serial GD iteration on a training cell's data (the serial floor
/// every traced run reports as context).
double serial_floor_us(std::size_t units, std::size_t examples_per_unit,
                       std::size_t features, double learning_rate,
                       std::uint64_t seed, std::size_t iterations) {
  Rng rng(seed);
  const auto d = build_train_data(units, examples_per_unit, features, rng);
  const SerialRun run =
      serial_gd(d->problem.dataset, *d->source, learning_rate, iterations);
  return 1e6 * median(run.iteration_s);
}

/// Adds one simulated iteration, timed [t0, t1], to `phases`; traced, it
/// is cut at the sink's stamps: draw = start to last draw, select = to the
/// first offer, scan = to the end.
void add_sim_iteration(PhaseTotals& phases, const TraceSink* sink, double t0,
                       double t1, std::size_t heard, std::size_t start_prefix) {
  ++phases.iterations;
  phases.wall_s += t1 - t0;
  phases.iteration_s.push_back(t1 - t0);
  if (sink == nullptr) {
    return;
  }
  const double first = sink->first_offer >= 0 ? sink->first_offer : t1;
  phases.draw_s += sink->draw_last - t0;
  phases.select_s += first - sink->draw_last;
  phases.scan_s += t1 - first;
  phases.prefix_use +=
      static_cast<double>(heard) / static_cast<double>(start_prefix);
}

void add_phases(PhaseTotals& into, const PhaseTotals& cell) {
  into.iterations += cell.iterations;
  into.wall_s += cell.wall_s;
  into.draw_s += cell.draw_s;
  into.select_s += cell.select_s;
  into.scan_s += cell.scan_s;
  into.prefix_use += cell.prefix_use;
}

/// Median over `reps` calls of `body`'s wall time.
double median_wall(int reps, const std::function<void()>& body) {
  std::vector<double> walls;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    body();
    walls.push_back(now_s() - t0);
  }
  return median(walls);
}

// ----------------------------------------------------------------- sweeps

std::uint64_t sweep_iterations(const std::vector<driver::RunRecord>& records) {
  std::uint64_t total = 0;
  for (const driver::RunRecord& rec : records) {
    total += rec.iterations_run;
  }
  return total;
}

bool same_placement(const core::Scheme& a, const core::Scheme& b) {
  if (a.registry_name() != b.registry_name() ||
      a.num_workers() != b.num_workers() || a.num_units() != b.num_units()) {
    return false;
  }
  for (std::size_t i = 0; i < a.num_workers(); ++i) {
    if (a.placement().worker(i) != b.placement().worker(i)) {
      return false;
    }
  }
  return true;
}

/// The oracle's prediction for every timing cell (nullopt where it
/// declines). The oracle depends only on the realized placement and the
/// cluster, so cells that realize the same placement on the same scenario
/// share one prediction; the distinct ones run on a small thread pool,
/// because the exact drop expansion costs up to seconds per cell at n = 100.
std::vector<std::optional<analytic::Prediction>> predict_cells(
    const std::vector<driver::SweepCell>& cells,
    const std::vector<std::unique_ptr<BuiltCell>>& built) {
  std::vector<std::size_t> owner(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    owner[c] = c;
    for (std::size_t d = 0; d < c; ++d) {
      if (owner[d] == d &&
          cells[d].config.scenario == cells[c].config.scenario &&
          same_placement(built[d]->scheme(), built[c]->scheme())) {
        owner[c] = d;
        break;
      }
    }
  }
  std::vector<std::optional<analytic::Prediction>> predictions(cells.size());
  {
    coupon::ThreadPool pool(kCheckThreads);
    std::vector<std::future<void>> done;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (owner[c] != c) {
        continue;
      }
      done.push_back(pool.submit([&, c] {
        std::string reason;
        predictions[c] =
            oracle_predict(built[c]->scheme(), built[c]->cluster(), &reason);
      }));
    }
    for (std::future<void>& f : done) {
      f.get();
    }
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    predictions[c] = predictions[owner[c]];
  }
  return predictions;
}

/// The output checks of one sweep's records; each failing cell marks its
/// `rounds` runs failed.
void check_sweep(const SweepShape& shape,
                 const std::vector<driver::SweepCell>& cells,
                 const std::vector<driver::RunRecord>& records,
                 std::uint64_t rounds, Result& r) {
  const auto id = [](const driver::ExperimentConfig& cfg) {
    return cfg.scheme + "/" + cfg.scenario + "/n" +
           std::to_string(cfg.num_workers) + "/seed" + std::to_string(cfg.seed);
  };
  if (shape.train) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const driver::RunRecord& rec = records[c];
      r.check(rec.time_to_target.has_value() && rec.failures == 0,
              id(cells[c].config) + ": did not reach target loss " +
                  fmt(shape.target_loss) + " with zero failed iterations",
              rounds);
    }
    return;
  }
  std::vector<std::unique_ptr<BuiltCell>> built;
  built.reserve(cells.size());
  for (const driver::SweepCell& cell : cells) {
    built.push_back(std::make_unique<BuiltCell>(cell.config, nullptr));
  }
  const auto predictions = predict_cells(cells, built);
  // The group of a cell: its seeds' siblings (same scheme, scenario, n).
  const auto group_of = [&](std::size_t c) {
    const driver::ExperimentConfig& cfg = cells[c].config;
    return cfg.scheme + "/" + cfg.scenario + "/" + std::to_string(cfg.num_workers);
  };
  std::map<std::string, std::pair<coupon::stats::OnlineStats,
                                  coupon::stats::OnlineStats>> spread;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (predictions[c]) {
      auto& [dk, dt] = spread[group_of(c)];
      dk.add(records[c].recovery_threshold - predictions[c]->expected_workers);
      dt.add(records[c].total_time /
                 static_cast<double>(cells[c].config.iterations) -
             predictions[c]->expected_time);
    }
  }
  std::size_t supported = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (!predictions[c]) {
      continue;
    }
    ++supported;
    const driver::ExperimentConfig& cfg = cells[c].config;
    const driver::RunRecord& rec = records[c];
    double sd_k = 0.0;
    double sd_t = 0.0;
    iteration_sd(built[c]->scheme(), built[c]->cluster(), cfg.seed ^ 0x5EEDull,
                 kSigmaSamples, &sd_k, &sd_t);
    // A fresh 400-iteration sample can miss rare drop events that the
    // cell's own run hit; the spread of the cell's seed siblings around
    // their predictions catches them, so sigma is the larger of the two.
    const double root_n = std::sqrt(static_cast<double>(cfg.iterations));
    const auto& [dk, dt] = spread[group_of(c)];
    sd_k = std::max(sd_k, root_n * dk.stddev());
    sd_t = std::max(sd_t, root_n * dt.stddev());
    const OracleVerdict v = compare_oracle(
        *predictions[c], cfg.num_workers, rec.recovery_threshold,
        rec.total_time / static_cast<double>(cfg.iterations), sd_k, sd_t,
        cfg.iterations);
    r.check(v.ok, id(cfg) + ": oracle mismatch: " + v.detail, rounds);
  }
  r.note("oracle check: " + std::to_string(supported) + " of " +
         std::to_string(cells.size()) +
         " cells supported by analytic::predict, all others skipped");
}

void run_sweep_workload(const RunArgs& args, const SweepShape& shape,
                        Result& r) {
  const driver::SweepPlan plan = make_plan(shape, args.seed);
  const std::vector<driver::SweepCell> cells = driver::expand_plan(plan);
  driver::SweepOptions options;
  options.threads = kPoolThreads;

  if (!args.trace) {
    // Set-up: every cell built and freed in turn, as the sweep does inside
    // its timed phase; cold, in a child process per repetition.
    const double setup_s =
        median_cold_build_s(kSetupReps, kSetupSeconds, [&cells] {
          for (const driver::SweepCell& cell : cells) {
            const BuiltCell built(cell.config, nullptr);
          }
        });

    const std::vector<driver::RunRecord> reference =
        driver::run_sweep(plan, options);
    const std::uint64_t round_iters = sweep_iterations(reference);

    // Timed phase, until the time is up: whole sweeps, back to back, for
    // `iters_per_s`. The sweep hides its iteration boundaries, so between
    // rounds the next quarter of the cells is also driven one iteration at
    // a time through the public classes, one cell per task on as many
    // threads as the sweep uses (one thread would sit on one vCPU, whose
    // speed on this kind of host shifts from run to run). `iter_p50_us` is
    // the median over passes through all cells of the pass's median
    // iteration, so it spans the same host conditions as the rounds.
    double sweep_wall = 0.0;
    std::uint64_t rounds = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t single_runs = 0;
    const std::size_t chunk = (cells.size() + 3) / 4;
    std::size_t next_cell = 0;
    PhaseTotals single;
    single.iteration_s.reserve(round_iters);
    std::vector<double> pass_p50;
    const double start = now_s();
    while (pass_p50.empty() || now_s() - start < args.seconds) {
      const double t0 = now_s();
      const std::vector<driver::RunRecord> records =
          driver::run_sweep(plan, options);
      sweep_wall += now_s() - t0;
      ++rounds;
      for (std::size_t c = 0; c < records.size(); ++c) {
        if (!same_record(records[c], reference[c])) {
          ++mismatched;
        }
      }
      const std::size_t first = next_cell;
      const std::size_t last = std::min(cells.size(), first + chunk);
      std::vector<PhaseTotals> phases(last - first);
      std::vector<char> same(last - first, 0);
      // A fresh pool per chunk, like run_sweep's per round, so its threads
      // reuse the malloc arenas the sweep's threads left behind.
      coupon::ThreadPool single_pool(kPoolThreads);
      std::vector<std::future<void>> done;
      for (std::size_t c = first; c < last; ++c) {
        done.push_back(single_pool.submit([&, c] {
          BuiltCell built(cells[c].config, nullptr);
          same[c - first] = same_record(built.run(&phases[c - first]),
                                        reference[c]);
        }));
      }
      for (std::size_t k = 0; k < done.size(); ++k) {
        done[k].get();
        mismatched += same[k] ? 0 : 1;
        single.iteration_s.insert(single.iteration_s.end(),
                                  phases[k].iteration_s.begin(),
                                  phases[k].iteration_s.end());
      }
      single_runs += last - first;
      next_cell = last;
      if (next_cell == cells.size()) {
        pass_p50.push_back(median(single.iteration_s));
        single.iteration_s.clear();
        next_cell = 0;
      }
    }
    const double rss = peak_rss_mib();

    r.attempted = rounds * cells.size() + single_runs;
    r.check(mismatched == 0,
            "sweep rounds or single cells disagree with the first sweep on " +
                std::to_string(mismatched) + " cell runs",
            mismatched);
    check_sweep(shape, cells, reference, rounds, r);
    emit_end_to_end(r, static_cast<double>(rounds * round_iters) / sweep_wall,
                    1e6 * median(pass_p50), setup_s, rss);
    r.note(std::to_string(cells.size()) + " cells x " +
           std::to_string(rounds) + " sweep rounds, " +
           std::to_string(round_iters) + " GD iterations per round, " +
           std::to_string(kPoolThreads) + " pool threads; " +
           std::to_string(pass_p50.size()) +
           " single-cell passes, median iteration per pass (us): " +
           [&] {
             std::string out;
             for (const double p : pass_p50) {
               out += (out.empty() ? "" : " ") + fmt(1e6 * p);
             }
             return out;
           }());
    return;
  }

  // Traced run. Driver-level ratios from whole untraced sweeps first.
  const std::vector<driver::RunRecord> reference =
      driver::run_sweep(plan, options);
  Layers l;
  constexpr int kPassReps = 3;
  const double par_wall = median_wall(kPassReps, [&] {
    driver::run_sweep(plan, options);
  });
  driver::SweepOptions serial = options;
  serial.threads = 1;
  const double serial_wall = median_wall(kPassReps, [&] {
    driver::run_sweep(plan, serial);
  });
  driver::SweepOptions unbatched = options;
  unbatched.sim_batch = 1;
  const double unbatched_wall = median_wall(kPassReps, [&] {
    driver::run_sweep(plan, unbatched);
  });
  l.pool_efficiency =
      serial_wall / (static_cast<double>(kPoolThreads) * par_wall);
  l.batch_gain = unbatched_wall / par_wall;

  // Then every cell one at a time through the public classes, plain and
  // decorated; both must reproduce the sweep's records bit for bit.
  PhaseTotals plain;
  PhaseTotals traced;
  PhaseTotals traced_n100;
  TraceSink sink;
  std::uint64_t mismatched = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const driver::ExperimentConfig& cfg = cells[c].config;
    const driver::RunRecord a = BuiltCell(cfg, nullptr).run(&plain);
    PhaseTotals cell;
    const driver::RunRecord b = BuiltCell(cfg, &sink).run(&cell);
    add_phases(traced, cell);
    if (cfg.num_workers == 100) {
      add_phases(traced_n100, cell);
    }
    if (!same_record(a, reference[c]) || !same_record(b, reference[c])) {
      ++mismatched;
    }
  }
  r.attempted = 2 * cells.size();
  r.check(mismatched == 0,
          "cells run one at a time (plain or traced) disagree with the "
          "sweep on " + std::to_string(mismatched) + " cells",
          2 * mismatched);
  check_sweep(shape, cells, reference, 1, r);

  const double iters = static_cast<double>(traced.iterations);
  const double us = 1e6 / iters;
  l.trace_overhead = plain.wall_s / traced.wall_s;
  l.trace_iter_us = traced.wall_s * us;
  l.draws_per_iter = static_cast<double>(sink.draws) / iters;
  l.offer_us = sink.offer_s * us;
  l.kept_share = mean_of(static_cast<double>(sink.kept), sink.offers);
  if (shape.train) {
    // Iteration = begin (draws + selection) + next_arrival (ingress scan,
    // encode, gradient) + offers + decode + step + loss + engine self.
    l.begin_us = sink.begin_s * us;
    l.draw_us = traced.draw_s * us;
    l.select_us = l.begin_us - l.draw_us;
    l.scan_us = sink.next_self_s * us;
    l.encode_us = sink.encode_self_s * us;
    l.gradient_us = sink.gradient_s * us;
    l.decode_us = sink.decode_s * us;
    l.step_us = sink.step_s * us;
    l.loss_us = sink.loss_s * us;
    l.engine_self_us = l.trace_iter_us - l.begin_us - l.scan_us -
                       l.encode_us - l.gradient_us - l.offer_us -
                       l.decode_us - l.step_us - l.loss_us;
    l.gradient_share = sink.gradient_s / traced.wall_s;
    l.unit_gradients_per_iter = static_cast<double>(sink.unit_gradients) / iters;
    l.gradient_reuse = mean_of(static_cast<double>(sink.units_consumed),
                               sink.unit_gradients);
    r.check(l.engine_self_us >= -1e-3 * l.trace_iter_us,
            "training phases exceed the iteration wall time");
    l.serial_iter_us = serial_floor_us(
        shape.workers.front(), shape.examples_per_unit, shape.features, 2.0,
        cells.front().config.seed, 300);
  } else {
    // Iteration = draw + select + scan (offers nested in the scan).
    l.draw_us = traced.draw_s * us;
    l.select_us = traced.select_s * us;
    l.scan_us = traced.scan_s * us;
    l.prefix_use = traced.prefix_use / iters;
    l.draw_share_n100 =
        traced_n100.wall_s > 0 ? traced_n100.draw_s / traced_n100.wall_s : 0;
    r.check(traced.select_s >= 0 && traced.scan_s >= 0,
            "simulation phases exceed the iteration wall time");
    const SweepShape ts = train_sweep_shape();
    l.serial_iter_us =
        serial_floor_us(ts.workers.front(), ts.examples_per_unit, ts.features,
                        2.0, args.seed, 300);
  }
  emit_layers(l, r);
}

// ------------------------------------------------------------------ giant

void run_giant_workload(const RunArgs& args, Result& r) {
  const GiantShape shape;
  auto run_pass = [&](TraceSink* sink, double seconds, PhaseTotals& phases,
                      std::vector<simulate::IterationReport>& reports,
                      GiantCell& cell) {
    const ClockFn clock = clock_for(sink);
    double elapsed = 0.0;
    while (phases.iterations == 0 || elapsed < seconds) {
      if (sink != nullptr) {
        sink->start_iteration();
      }
      const double t0 = clock();
      const simulate::IterationReport it = cell.step();
      const double t1 = clock();
      elapsed += t1 - t0;
      add_sim_iteration(phases, sink, t0, t1, it.workers_heard,
                        cell.start_prefix());
      reports.push_back(it);
    }
  };
  // analytic::predict does not finish at n = 10^6 within a run's budget
  // (minutes in its exact coverage and order-statistics expansions), so
  // the giant cell checks the kernel's per-iteration invariants instead.
  auto check_giant = [&](const GiantCell& cell,
                         const std::vector<simulate::IterationReport>& reports) {
    const core::Scheme& scheme = cell.scheme();
    const double units = scheme.message_units(0);
    std::uint64_t bad = 0;
    for (const auto& it : reports) {
      const bool ok = it.recovered &&
                      it.workers_heard >= scheme.min_arrivals_hint() &&
                      it.units_received ==
                          static_cast<double>(it.workers_heard) * units &&
                      it.compute_time >= 0 && it.compute_time <= it.total_time &&
                      it.comm_time == it.total_time - it.compute_time;
      bad += ok ? 0 : 1;
    }
    r.check(bad == 0,
            std::to_string(bad) + " giant iterations broke a kernel invariant",
            bad);
  };

  if (!args.trace) {
    // Set-up: cold builds in child processes, which exit holding the cell
    // (so its teardown is not timed); then this process builds its own.
    std::unique_ptr<GiantCell> cell;
    const double setup_s =
        median_cold_build_s(kSetupReps, kSetupSeconds, [&] {
          cell = std::make_unique<GiantCell>(shape, args.seed, nullptr);
        });
    cell = std::make_unique<GiantCell>(shape, args.seed, nullptr);
    PhaseTotals phases;
    std::vector<simulate::IterationReport> reports;
    run_pass(nullptr, args.seconds, phases, reports, *cell);
    const double rss = peak_rss_mib();
    r.attempted = phases.iterations;
    check_giant(*cell, reports);
    emit_end_to_end(r, static_cast<double>(phases.iterations) / phases.wall_s,
                    1e6 * median(phases.iteration_s), setup_s, rss);
    r.note(tail_note(phases.iteration_s));
    return;
  }

  PhaseTotals plain;
  PhaseTotals traced;
  std::vector<simulate::IterationReport> plain_reports;
  std::vector<simulate::IterationReport> traced_reports;
  TraceSink sink;
  {
    GiantCell cell(shape, args.seed, nullptr);
    run_pass(nullptr, args.seconds / 2, plain, plain_reports, cell);
  }
  {
    GiantCell cell(shape, args.seed, &sink);
    run_pass(&sink, args.seconds / 2, traced, traced_reports, cell);
    check_giant(cell, traced_reports);
  }
  const std::size_t common = std::min(plain_reports.size(), traced_reports.size());
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < common; ++i) {
    const auto& a = plain_reports[i];
    const auto& b = traced_reports[i];
    if (a.total_time != b.total_time || a.compute_time != b.compute_time ||
        a.comm_time != b.comm_time || a.workers_heard != b.workers_heard ||
        a.units_received != b.units_received || a.recovered != b.recovered) {
      ++mismatched;
    }
  }
  r.attempted = plain.iterations + traced.iterations;
  r.check(mismatched == 0,
          "traced giant iterations differ from plain ones: " +
              std::to_string(mismatched),
          mismatched);
  Layers l;
  const double iters = static_cast<double>(traced.iterations);
  const double us = 1e6 / iters;
  l.draw_us = traced.draw_s * us;
  l.select_us = traced.select_s * us;
  l.scan_us = traced.scan_s * us;
  l.prefix_use = traced.prefix_use / iters;
  l.draws_per_iter = static_cast<double>(sink.draws) / iters;
  l.offer_us = sink.offer_s * us;
  l.kept_share = mean_of(static_cast<double>(sink.kept), sink.offers);
  l.trace_iter_us = traced.wall_s * us;
  l.trace_overhead = (iters / traced.wall_s) /
                     (static_cast<double>(plain.iterations) / plain.wall_s);
  r.check(traced.select_s >= 0 && traced.scan_s >= 0,
          "simulation phases exceed the iteration wall time");
  const SweepShape ts = train_sweep_shape();
  l.serial_iter_us = serial_floor_us(ts.workers.front(), ts.examples_per_unit,
                                     ts.features, 2.0, args.seed, 300);
  emit_layers(l, r);
}

// ---------------------------------------------------------------- process

/// Calibration runs of the process workload: short runs whose median rate
/// sizes the long run to about `seconds`.
constexpr std::size_t kLiveCalibrationIters = 200;

void run_live_workload(const RunArgs& args, Result& r) {
  const LiveShape shape;
  if (!coupon::runtime::ProcessCluster::supported()) {
    throw std::runtime_error(
        "live_process needs fork() and stream sockets on this host");
  }
  // Set-up and calibration: repeated short runs, each paying the dataset,
  // the scheme, and the fork + connect up to the first broadcast.
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> prefix_weights;
  const int min_reps = args.trace ? 3 : kSetupReps;
  const double setup_start = now_s();
  for (int i = 0; i < min_reps ||
                  (!args.trace && now_s() - setup_start < kSetupSeconds);
       ++i) {
    const LiveOutcome o =
        run_live(shape, args.seed, kLiveCalibrationIters, nullptr, nullptr);
    setups.push_back(o.build_s + o.connect_s);
    rates.push_back(static_cast<double>(kLiveCalibrationIters) / o.run_s);
    if (i == 0) {
      prefix_weights = o.report.weights;
    }
  }
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  const auto iterations = static_cast<std::size_t>(std::clamp(
      seconds * median(rates), static_cast<double>(kLiveCalibrationIters),
      1e7));

  const LiveOutcome run = run_live(shape, args.seed, iterations, nullptr, nullptr);
  const double rss = peak_rss_mib();
  const double iter_p50_us = 1e6 * median(run.cycle_s);

  // Output checks against a serial run of the same optimizer on the same
  // data, to rounding (the decode sums in batch order, the serial reference
  // in unit order): the weights after the first calibration run, while a
  // wrong gradient cannot yet have converged to the right answer, and the
  // long run's final loss.
  const LiveCell cell = build_live_cell(shape, args.seed);
  const SerialRun serial_prefix =
      serial_gd(cell.data->problem.dataset, *cell.data->source,
                shape.learning_rate, kLiveCalibrationIters);
  const SerialRun serial =
      serial_gd(cell.data->problem.dataset, *cell.data->source,
                shape.learning_rate, iterations);
  r.attempted = iterations + kLiveCalibrationIters;
  const double prefix_error =
      relative_error(prefix_weights, serial_prefix.weights);
  r.check(prefix_error <= 1e-9,
          "process weights after " + std::to_string(kLiveCalibrationIters) +
              " iterations differ from serial by " + fmt(prefix_error) +
              " relative",
          kLiveCalibrationIters);
  const double tol = 1e-6 * std::abs(serial.final_loss);
  r.check(std::abs(run.final_loss - serial.final_loss) <= tol,
          "process final loss " + fmt(run.final_loss) + " vs serial " +
              fmt(serial.final_loss),
          iterations);
  r.check(run.report.failed_iterations == 0 && run.workers_lost == 0,
          "process run lost workers or iterations",
          run.report.failed_iterations + (run.workers_lost > 0 ? 1 : 0));
  r.note("process run: " + std::to_string(iterations) +
         " iterations; final loss " + fmt(run.final_loss) + ", serial " +
         fmt(serial.final_loss) + "; weights after " +
         std::to_string(kLiveCalibrationIters) + " iterations within " +
         fmt(prefix_error) + " of serial");

  if (!args.trace) {
    emit_end_to_end(r, static_cast<double>(iterations) / run.run_s,
                    iter_p50_us, median(setups), rss);
    r.note(tail_note(run.cycle_s));
    return;
  }

  TraceSink sink;
  SharedTraceSinks workers(shape.workers);
  const LiveOutcome traced =
      run_live(shape, args.seed, iterations, &sink, workers.data());
  r.attempted += iterations;
  r.check(traced.report.weights == run.report.weights &&
              traced.final_loss == run.final_loss,
          "traced process run differs from the plain run", iterations);

  Layers l;
  const double iters = static_cast<double>(iterations);
  const double us = 1e6 / iters;
  const double per_worker_us = us / static_cast<double>(shape.workers);
  const TraceSink w = workers.total();
  l.trace_iter_us = traced.run_s * us;
  l.trace_overhead = run.run_s / traced.run_s;
  l.offer_us = sink.offer_s * us;
  l.kept_share = mean_of(static_cast<double>(sink.kept), sink.offers);
  l.decode_us = sink.decode_s * us;
  l.step_us = sink.step_s * us;
  l.master_wait_us = l.trace_iter_us - l.offer_us - l.decode_us - l.step_us;
  l.worker_compute_us = w.encode_total_s * per_worker_us;
  l.encode_us = w.encode_self_s * per_worker_us;
  l.gradient_us = w.gradient_s * per_worker_us;
  l.unit_gradients_per_iter = static_cast<double>(w.unit_gradients) / iters;
  l.gradient_reuse = mean_of(static_cast<double>(sink.units_consumed),
                             w.unit_gradients);
  r.check(l.master_wait_us >= 0, "master phases exceed the iteration wall");

  const WireCost wire = wire_cost(*cell.scheme, *cell.data->source, 0.2);
  r.check(wire.codec_s_per_iter >= 0, "message codec round trip failed");
  l.bytes_per_iter = wire.bytes_per_iter;
  l.codec_us = 1e6 * wire.codec_s_per_iter;
  l.serial_iter_us = 1e6 * median(serial.iteration_s);
  l.overhead_ratio = iter_p50_us / l.serial_iter_us;
  emit_layers(l, r);
}

}  // namespace

// ------------------------------------------------------------ public API

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sim_sweep", "sim_giant",
                                                 "train_sweep", "live_process"};
  return names;
}

SweepShape sim_sweep_shape() {
  SweepShape s;
  s.schemes = {"uncoded", "cr", "fr", "bcc", "gc_cyclic"};
  s.scenarios = {"shifted_exp", "lossy"};
  s.workers = {50, 100};
  s.load = 10;
  s.seeds = 16;
  s.iterations = 400;
  return s;
}

SweepShape train_sweep_shape() {
  SweepShape s;
  s.schemes = {"bcc", "gc_cyclic"};
  s.scenarios = {"shifted_exp"};
  s.workers = {50};
  s.load = 10;
  s.seeds = 80;
  s.iterations = 50;
  s.train = true;
  s.features = 100;
  s.examples_per_unit = 20;
  s.target_loss = 0.3;
  return s;
}

driver::SweepPlan make_plan(const SweepShape& shape, std::uint64_t seed) {
  driver::SweepPlan plan;
  plan.base.runtime = "sim";
  plan.base.record_trace = false;
  plan.base.load = shape.load;
  plan.base.iterations = shape.iterations;
  if (shape.train) {
    plan.base.train = true;
    plan.base.objective = "logistic";
    plan.base.optimizer = "nesterov";
    plan.base.features = shape.features;
    plan.base.examples_per_unit = shape.examples_per_unit;
    plan.base.record_loss_history = true;
    plan.base.target_loss = shape.target_loss;
  }
  plan.schemes = shape.schemes;
  plan.scenarios = shape.scenarios;
  plan.workers = shape.workers;
  for (std::size_t k = 0; k < shape.seeds; ++k) {
    plan.seeds.push_back(seed * 1000 + k + 1);
  }
  return plan;
}

struct BuiltCell::State {
  driver::ExperimentConfig config;
  TraceSink* sink = nullptr;
  driver::Scenario scenario;
  Rng rng{0};
  std::unique_ptr<TrainData> data;
  std::unique_ptr<core::Scheme> scheme;
  std::optional<TracedScheme> traced_scheme;
  simulate::ClusterConfig cluster;  ///< the base, or its traced copy
  // Timing-only cells.
  std::unique_ptr<simulate::LatencyModel> model;
  std::unique_ptr<simulate::IterationKernel> kernel;
  // Training cells.
  std::optional<TracedSource> traced_source;
  std::unique_ptr<engine::SimulatedProvider> provider;
  std::optional<TracedProvider> traced_provider;
  std::unique_ptr<opt::NesterovGradient> nesterov;
  std::optional<TracedOptimizer> traced_optimizer;
  engine::TrainOptions options;
  std::unique_ptr<engine::TrainLoop> loop;

  const core::Scheme& used_scheme() const {
    return traced_scheme ? static_cast<const core::Scheme&>(*traced_scheme)
                         : *scheme;
  }
  void build_timing();
  void build_train();
  driver::RunRecord run_timing(PhaseTotals* phases);
  driver::RunRecord run_train(PhaseTotals* phases);
};

BuiltCell::BuiltCell(const driver::ExperimentConfig& config, TraceSink* sink)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.config = config;
  s.sink = sink;
  s.scenario = driver::ScenarioRegistry::instance().build(config.scenario,
                                                          config.num_workers);
  s.rng = Rng(config.seed);
  if (config.train) {
    s.build_train();
  } else {
    s.build_timing();
  }
}

BuiltCell::~BuiltCell() = default;

driver::RunRecord BuiltCell::run(PhaseTotals* phases) {
  return state_->loop ? state_->run_train(phases) : state_->run_timing(phases);
}

const core::Scheme& BuiltCell::scheme() const { return *state_->scheme; }

const simulate::ClusterConfig& BuiltCell::cluster() const {
  return cluster_of(state_->config, state_->scenario);
}

void BuiltCell::State::build_timing() {
  scheme = core::SchemeRegistry::instance().create(
      config.scheme, scheme_config(config, false), rng);
  const simulate::ClusterConfig& base = cluster_of(config, scenario);
  if (sink != nullptr) {
    traced_scheme.emplace(*scheme, *sink);
  }
  cluster = sink != nullptr ? traced_cluster(base, *sink) : base;
  model = simulate::make_latency_model(cluster, config.num_workers);
  kernel = std::make_unique<simulate::IterationKernel>(used_scheme(), cluster);
}

void BuiltCell::State::build_train() {
  if (config.objective != "logistic" || config.optimizer != "nesterov" ||
      config.lr_decay != 0.0) {
    throw std::invalid_argument(
        "BuiltCell replicates logistic + constant-rate Nesterov cells");
  }
  data = build_train_data(config.num_units, config.examples_per_unit,
                          config.features, rng);
  scheme = core::SchemeRegistry::instance().create(
      config.scheme, scheme_config(config, true), rng);
  const data::Dataset* dataset = &data->problem.dataset;
  options.loss_fn = [dataset](std::span<const double> w) {
    return opt::logistic_loss(*dataset, w);
  };
  const simulate::ClusterConfig& base = cluster_of(config, scenario);
  if (sink != nullptr) {
    sink->count_units = true;
    traced_scheme.emplace(*scheme, *sink);
    traced_source.emplace(*data->source, *sink);
    options.loss_fn = traced_loss(std::move(options.loss_fn), *sink);
  }
  cluster = sink != nullptr ? traced_cluster(base, *sink) : base;
  const core::UnitGradientSource& source =
      traced_source ? static_cast<const core::UnitGradientSource&>(*traced_source)
                    : *data->source;

  provider = std::make_unique<engine::SimulatedProvider>(used_scheme(), source,
                                                         cluster, rng);
  if (sink != nullptr) {
    traced_provider.emplace(*provider, *sink);
  }
  nesterov = std::make_unique<opt::NesterovGradient>(
      config.features, opt::LearningRateSchedule::constant(config.learning_rate));
  if (sink != nullptr) {
    traced_optimizer.emplace(*nesterov, sink);
  }

  options.iterations = config.iterations;
  options.on_failure = config.on_failure;
  options.record_loss_history = config.record_loss_history;
  options.target_loss = config.target_loss;
  options.stop_at_target = config.stop_at_target;
  options.approximate_recovery = core::SchemeRegistry::instance()
                                     .find(config.scheme)
                                     ->caps.approximate_recovery;
  engine::IterationProvider& used_provider =
      traced_provider ? static_cast<engine::IterationProvider&>(*traced_provider)
                      : *provider;
  opt::IterativeOptimizer& optimizer =
      traced_optimizer ? static_cast<opt::IterativeOptimizer&>(*traced_optimizer)
                       : *nesterov;
  loop = std::make_unique<engine::TrainLoop>(used_scheme(), source,
                                             used_provider, optimizer, options);
}

driver::RunRecord BuiltCell::State::run_timing(PhaseTotals* phases) {
  // simulate_run's loop and aggregation, one iteration at a time.
  simulate::RunReport run;
  const ClockFn clock = clock_for(sink);
  for (std::size_t t = 0; t < config.iterations; ++t) {
    if (sink != nullptr) {
      sink->start_iteration();
    }
    const double t0 = clock();
    const simulate::IterationReport it = kernel->run(*model, t, rng);
    const double t1 = clock();
    run.total_time += it.total_time;
    run.total_compute_time += it.compute_time;
    run.total_comm_time += it.comm_time;
    run.workers_heard.add(static_cast<double>(it.workers_heard));
    run.units_received.add(it.units_received);
    if (!it.recovered) {
      ++run.failures;
    }
    if (phases != nullptr) {
      add_sim_iteration(*phases, sink, t0, t1, it.workers_heard,
                        kernel->start_prefix());
    }
  }
  driver::RunRecord record;
  record.recovery_threshold = run.workers_heard.mean();
  record.comm_time = run.total_comm_time;
  record.compute_time = run.total_compute_time;
  record.total_time = run.total_time;
  record.mean_units = run.units_received.mean();
  record.failures = run.failures;
  record.iterations_run = config.iterations;
  return record;
}

driver::RunRecord BuiltCell::State::run_train(PhaseTotals* phases) {
  const ClockFn clock = clock_for(sink);
  while (!loop->done()) {
    if (sink != nullptr) {
      sink->start_iteration();
    }
    const double t0 = clock();
    loop->step();
    const double t1 = clock();
    if (phases != nullptr) {
      ++phases->iterations;
      phases->wall_s += t1 - t0;
      phases->iteration_s.push_back(t1 - t0);
      if (sink != nullptr) {
        phases->draw_s += sink->draw_last - sink->draw_begin;
      }
    }
  }
  // The final-loss evaluation in take_report belongs to no iteration.
  const double loss_before = sink != nullptr ? sink->loss_s : 0.0;
  engine::TrainReport report = loop->take_report();
  if (sink != nullptr) {
    sink->loss_s = loss_before;
  }

  driver::RunRecord record;
  record.recovery_threshold = report.workers_heard.mean();
  record.total_time = report.elapsed_seconds;
  record.mean_units = report.units_received.mean();
  record.failures = report.failed_iterations;
  record.partial_iterations = report.partial_iterations;
  record.iterations_run = report.iterations_run;
  record.final_loss = report.final_loss;
  record.time_to_target = report.time_to_target;
  record.approximate_iterations = report.approximate_iterations;
  record.train_accuracy = opt::accuracy(data->problem.dataset, report.weights);
  record.comm_time = report.comm_seconds;
  record.compute_time = report.compute_seconds;
  record.loss_history = std::move(report.loss_history);
  return record;
}

bool same_record(const driver::RunRecord& a, const driver::RunRecord& b) {
  if (a.recovery_threshold != b.recovery_threshold ||
      a.comm_time != b.comm_time || a.compute_time != b.compute_time ||
      a.total_time != b.total_time || a.mean_units != b.mean_units ||
      a.failures != b.failures || a.partial_iterations != b.partial_iterations ||
      a.iterations_run != b.iterations_run || a.final_loss != b.final_loss ||
      a.train_accuracy != b.train_accuracy ||
      a.time_to_target != b.time_to_target ||
      a.approximate_iterations != b.approximate_iterations ||
      a.loss_history.size() != b.loss_history.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.loss_history.size(); ++i) {
    if (a.loss_history[i].seconds != b.loss_history[i].seconds ||
        a.loss_history[i].loss != b.loss_history[i].loss) {
      return false;
    }
  }
  return true;
}

struct GiantCell::State {
  simulate::ClusterConfig cluster;
  Rng rng{0};
  std::unique_ptr<core::Scheme> scheme;
  std::unique_ptr<TracedScheme> traced;
  std::unique_ptr<simulate::LatencyModel> model;
  std::unique_ptr<simulate::IterationKernel> kernel;
  std::size_t t = 0;
};

GiantCell::GiantCell(const GiantShape& shape, std::uint64_t seed,
                     TraceSink* sink)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  const simulate::ClusterConfig base = driver::ScenarioRegistry::instance()
                                           .build(shape.scenario, shape.workers)
                                           .cluster;
  s.cluster = sink != nullptr ? traced_cluster(base, *sink) : base;
  s.rng = Rng(seed);
  core::SchemeConfig sconf;
  sconf.num_workers = shape.workers;
  sconf.num_units = shape.workers;
  sconf.load = shape.load;
  s.scheme = core::SchemeRegistry::instance().create(shape.scheme, sconf, s.rng);
  if (sink != nullptr) {
    s.traced = std::make_unique<TracedScheme>(*s.scheme, *sink);
  }
  const core::Scheme& used =
      s.traced ? static_cast<const core::Scheme&>(*s.traced) : *s.scheme;
  s.model = simulate::make_latency_model(s.cluster, shape.workers);
  s.kernel = std::make_unique<simulate::IterationKernel>(used, s.cluster);
}

GiantCell::~GiantCell() = default;

simulate::IterationReport GiantCell::step() {
  State& s = *state_;
  return s.kernel->run(*s.model, s.t++, s.rng);
}

std::size_t GiantCell::start_prefix() const {
  return state_->kernel->start_prefix();
}
const core::Scheme& GiantCell::scheme() const { return *state_->scheme; }

LiveOutcome run_live(const LiveShape& shape, std::uint64_t seed,
                     std::size_t iterations, TraceSink* sink,
                     TraceSink* worker_sinks) {
  LiveOutcome out;
  const double b0 = now_s();
  const LiveCell cell = build_live_cell(shape, seed);
  const TrainData* d = cell.data.get();
  const core::Scheme* scheme = cell.scheme.get();
  out.build_s = now_s() - b0;

  const driver::Scenario scenario =
      driver::ScenarioRegistry::instance().build(shape.scenario, shape.workers);
  std::optional<TracedScheme> traced_scheme;
  std::optional<TracedSource> traced_source;
  if (sink != nullptr) {
    sink->count_units = true;
    traced_scheme.emplace(*scheme, *sink, worker_sinks);
    traced_source.emplace(*d->source, *sink);
  }
  const core::Scheme& used_scheme =
      traced_scheme ? static_cast<const core::Scheme&>(*traced_scheme) : *scheme;
  const core::UnitGradientSource& used_source =
      traced_source ? static_cast<const core::UnitGradientSource&>(*traced_source)
                    : *d->source;

  coupon::runtime::ProcessCluster cluster(used_scheme, used_source, seed + 42);
  opt::NesterovGradient nesterov(
      shape.features, opt::LearningRateSchedule::constant(shape.learning_rate));
  const ClockFn clock = clock_for(sink);
  double first_query = -1.0;
  std::vector<double> steps;
  steps.reserve(iterations);
  TracedOptimizer stamped(
      nesterov, sink,
      [&first_query, clock] {
        if (first_query < 0) {
          first_query = clock();
        }
      },
      [&steps, clock] { steps.push_back(clock()); });

  coupon::runtime::ProcessTrainOptions options;
  options.iterations = iterations;
  options.straggler = scenario.straggler;
  options.elasticity = scenario.elasticity;
  const double t_call = clock();
  coupon::runtime::ProcessTrainResult result = cluster.train(stamped, options);
  out.connect_s = first_query - t_call;
  double prev = first_query;
  out.cycle_s.reserve(steps.size());
  for (const double s : steps) {
    out.cycle_s.push_back(s - prev);
    prev = s;
  }
  out.run_s = steps.empty() ? 0.0 : steps.back() - first_query;
  out.final_loss = opt::logistic_loss(d->problem.dataset, result.report.weights);
  out.workers_lost = result.workers_lost;
  out.report = std::move(result.report);
  return out;
}

Result run_workload(const RunArgs& args) {
  Result r;
  if (args.workload == "sim_sweep") {
    run_sweep_workload(args, sim_sweep_shape(), r);
  } else if (args.workload == "train_sweep") {
    run_sweep_workload(args, train_sweep_shape(), r);
  } else if (args.workload == "sim_giant") {
    run_giant_workload(args, r);
  } else if (args.workload == "live_process") {
    run_live_workload(args, r);
  } else {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  return r;
}

}  // namespace perfbench
