// Reproduces Fig. 2 of the paper: the tradeoff between the computational
// load r and the recovery threshold K for distributed GD with m = 100
// training examples across n = 100 workers.
//
// Four series, as in the paper:
//   * lower bound          K*(r) >= m/r                     (Theorem 1)
//   * proposed BCC         K_BCC = ceil(m/r) * H_{ceil(m/r)} (Eq. 2)
//   * simple randomized    K_rand ~ (m/r) log m              (Eq. 5)
//   * CR scheme            K_CR = m - r + 1                  (Eq. 7)
//
// The two randomized series are additionally validated by Monte Carlo
// (fresh placements per trial); the analytic and empirical columns should
// agree for BCC and bracket the approximation for the randomized scheme.
//
// Beyond the paper: --workers n emits the same tradeoff as a *simulated
// runtime* curve (mean K, L, and seconds/iteration on the EC2-shaped
// cluster model) at any n up to the million-worker regime the
// threshold-selection kernel unlocks (DESIGN.md §7.4) — the paper's
// Fig. 2 shape, but measured end to end instead of counted. CR joins the
// curve only at paper scale: its n x n coding matrix is quadratic in
// memory by construction. --quick shrinks trials and iterations for
// smoke runs.

#include <cstdio>
#include <memory>
#include <vector>

#include "core/core.hpp"
#include "core/scheme_registry.hpp"
#include "simulate/cluster_sim.hpp"
#include "stats/rng.hpp"
#include "util/util.hpp"

namespace {

double mc_bcc_threshold(std::size_t m, std::size_t r, std::size_t trials,
                        coupon::stats::Rng& rng) {
  // Plenty of workers so truncation at n is negligible, as in Theorem 1's
  // "sufficiently large n".
  const std::size_t batches = coupon::core::theory::bcc_batches(m, r);
  const std::size_t n = std::max<std::size_t>(batches * 20, 200);
  double total = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto scheme = coupon::core::make_bcc(n, m, r, false, rng);
    auto collector = scheme->make_collector();
    for (std::size_t i = 0; i < n && !collector->ready(); ++i) {
      collector->offer(i, scheme->message_meta(i), {});
    }
    total += static_cast<double>(collector->workers_heard());
  }
  return total / static_cast<double>(trials);
}

/// The simulated runtime-vs-redundancy curve at n = m = `workers`:
/// every registered scheme that fits the shape, across a ladder of
/// loads, measured by the selection kernel on the EC2 cluster model.
void print_simulated_curve(std::size_t workers, std::size_t iterations,
                           coupon::stats::Rng& rng) {
  namespace sim = coupon::simulate;
  const sim::ClusterConfig cluster = sim::ec2_cluster();

  std::printf("\nSimulated runtime vs redundancy (n = m = %zu, %zu "
              "iterations/point, EC2 cluster model)\n\n",
              workers, iterations);
  coupon::AsciiTable table({"scheme", "r", "K (mean)", "L (mean)",
                            "sec/iter", "comm frac"});

  // CR's coding matrix is n x n: paper scale only.
  const bool include_cr = workers <= 2000;
  std::vector<std::size_t> loads{2, 5, 10, 20, 40};

  auto add_point = [&](const char* name, std::size_t load) {
    coupon::core::SchemeConfig config;
    config.num_workers = workers;
    config.num_units = workers;
    config.load = load;
    const auto scheme =
        coupon::core::SchemeRegistry::instance().create(name, config, rng);
    sim::RunOptions options;
    options.iterations = iterations;
    options.record_trace = false;
    const sim::RunReport run = simulate_run(*scheme, cluster, options, rng);
    const double per_iter =
        run.total_time / static_cast<double>(iterations);
    table.add_row({name, std::to_string(load),
                   coupon::format_double(run.workers_heard.mean(), 1),
                   coupon::format_double(run.units_received.mean(), 1),
                   coupon::format_double(per_iter, 4),
                   coupon::format_double(
                       run.total_time > 0.0
                           ? run.total_comm_time / run.total_time
                           : 0.0,
                       3)});
  };

  add_point("uncoded", 1);  // the wait-for-all baseline (r = 1)
  for (std::size_t r : loads) {
    if (r > workers) {
      continue;
    }
    add_point("bcc", r);
    if (workers % r == 0) {
      add_point("fr", r);  // FR needs r | n
    }
    add_point("gc_cyclic", r);
    if (include_cr) {
      add_point("cr", r);
    }
  }
  std::fputs(table.render().c_str(), stdout);
  if (!include_cr) {
    std::printf("\n(cr omitted: its n x n coding matrix is quadratic in "
                "memory at n = %zu)\n", workers);
  }
}

}  // namespace

int main(int argc, char** argv) {
  coupon::CliFlags flags;
  flags.add_int("m", 100, "number of training examples (paper: 100)")
      .add_int("trials", 2000, "Monte Carlo trials per point")
      .add_int("seed", 2718, "PRNG seed")
      .add_int("workers", 0,
               "also emit the simulated runtime-vs-redundancy curve at "
               "n = m = this many workers (0 = analytic table only; try "
               "100000 for the large-n regime)")
      .add_bool("quick", false,
                "smoke mode: ~10x fewer Monte Carlo trials and simulated "
                "iterations");
  if (!flags.parse(argc, argv)) {
    return 1;
  }
  const auto m = static_cast<std::size_t>(flags.get_int("m"));
  const bool quick = flags.get_bool("quick");
  const auto trials = std::max<std::size_t>(
      1, static_cast<std::size_t>(flags.get_int("trials")) / (quick ? 10 : 1));
  const auto workers = static_cast<std::size_t>(flags.get_int("workers"));
  coupon::stats::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));

  std::printf("Fig. 2 — recovery threshold K vs computational load r "
              "(m = n = %zu)\n\n", m);

  coupon::AsciiTable table({"r", "lower bound m/r", "BCC (Eq.2)",
                            "BCC (MC)", "randomized ~(m/r)log m",
                            "randomized (MC)", "CR m-r+1"});
  namespace th = coupon::core::theory;
  for (std::size_t r : {2u, 5u, 10u, 15u, 20u, 25u, 30u, 40u, 50u}) {
    if (r > m) {
      continue;
    }
    const double mc_bcc = mc_bcc_threshold(m, r, trials, rng);
    const double mc_rand =
        th::mc_simple_random_threshold(m, r, trials, rng);
    table.add_row({std::to_string(r),
                   coupon::format_double(th::k_lower_bound(m, r), 2),
                   coupon::format_double(th::k_bcc(m, r), 2),
                   coupon::format_double(mc_bcc, 2),
                   coupon::format_double(th::k_simple_random_approx(m, r), 2),
                   coupon::format_double(mc_rand, 2),
                   coupon::format_double(th::k_cyclic_repetition(m, r), 0)});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nPaper shape check: for moderate r the ordering is\n"
              "  lower bound < BCC < randomized < CR,\n"
              "with BCC within the H_{m/r} log-factor of the bound "
              "(Theorem 1).\n");

  if (workers > 0) {
    const std::size_t iterations =
        quick ? 10 : (workers > 10'000 ? 20 : 200);
    print_simulated_curve(workers, iterations, rng);
  }
  return 0;
}
