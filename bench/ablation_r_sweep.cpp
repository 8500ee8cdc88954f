// Ablation: total running time vs computational load r (design choice #2
// of DESIGN.md §5). The paper fixes r = 10 "based on the memory
// constraints of the instances so as to minimize the total running
// times"; this sweep shows the tradeoff that statement describes —
// larger r buys a lower recovery threshold (less waiting, less master
// ingress) at the price of more per-worker compute, with the optimum
// moving right as the cluster grows.
//
// BCC results are averaged over several independent placements: with a
// single fixed placement the realized K is itself random (a batch picked
// by few workers inflates the wait), and at small r the placement may
// not even cover every batch — the `failed` column counts iterations the
// master could not recover at all.
//
// Built on the driver's SweepPlan: schemes × r-axis × placement-seed
// axis, all cells in parallel on the thread pool; the placement average
// is a fold over the returned records.

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "driver/driver.hpp"
#include "driver/predict.hpp"
#include "driver/sweep.hpp"
#include "util/util.hpp"

int main(int argc, char** argv) {
  coupon::CliFlags flags;
  flags.add_int("iterations", 100, "GD iterations per run")
      .add_int("placements", 5, "independent placements to average over");
  if (!flags.parse(argc, argv)) {
    return 1;
  }
  const auto iterations =
      static_cast<std::size_t>(flags.get_int("iterations"));
  const auto placements =
      static_cast<std::size_t>(flags.get_int("placements"));

  const std::pair<const char*, coupon::driver::ExperimentConfig> scenarios[] =
      {{"scenario one", coupon::driver::ec2_scenario_one()},
       {"scenario two", coupon::driver::ec2_scenario_two()}};
  for (const auto& [name, base] : scenarios) {
    coupon::driver::SweepPlan plan;
    plan.base = base;
    plan.base.iterations = iterations;
    plan.base.record_trace = false;  // summary table only
    plan.schemes = {"bcc", "cr"};
    for (std::size_t r : {2u, 5u, 10u, 20u, 25u, 50u}) {
      if (r <= base.num_units) {
        plan.loads.push_back(r);
      }
    }
    for (std::size_t p = 0; p < placements; ++p) {
      plan.seeds.push_back(base.seed + 1000 * (p + 1));
    }

    const auto records = coupon::driver::run_sweep(plan);

    std::printf("r sweep — %s (n=%zu, m=%zu batches), %zu iterations x "
                "%zu placements\n\n",
                name, base.num_workers, base.num_units, iterations,
                placements);
    coupon::AsciiTable table({"r", "BCC K", "BCC total (s)", "BCC pred (s)",
                              "BCC failed", "CR K", "CR total (s)",
                              "CR pred (s)"});
    // Cell order is scheme-major, then r, then placement seed:
    // records[s * loads * placements + l * placements + p].
    const std::size_t stride = plan.loads.size() * placements;
    // Measured and oracle-predicted per-(scheme, r) totals, averaged over
    // the same placement seeds; argmins drive the r* overlay below.
    std::vector<double> bcc_measured, bcc_predicted, cr_measured,
        cr_predicted;
    for (std::size_t l = 0; l < plan.loads.size(); ++l) {
      double bcc_k = 0.0, bcc_total = 0.0, cr_k = 0.0, cr_total = 0.0;
      double bcc_pred = 0.0, cr_pred = 0.0;
      std::size_t bcc_failed = 0;
      for (std::size_t p = 0; p < placements; ++p) {
        const auto& bcc = records[0 * stride + l * placements + p];
        const auto& cr = records[1 * stride + l * placements + p];
        bcc_k += bcc.recovery_threshold;
        bcc_total += bcc.total_time;
        bcc_failed += bcc.failures;
        cr_k += cr.recovery_threshold;
        cr_total += cr.total_time;
        for (const auto& cell : {&bcc, &cr}) {
          auto config = plan.base;
          config.scheme = cell->scheme;
          config.load = cell->load;
          config.seed = cell->seed;
          const auto prediction = coupon::driver::predict_cell(config);
          // An unsupported cell poisons its (scheme, r) average so the
          // r* argmin can never select it.
          const double total =
              prediction.has_value()
                  ? prediction->expected_time * static_cast<double>(iterations)
                  : std::numeric_limits<double>::infinity();
          (cell == &bcc ? bcc_pred : cr_pred) += total;
        }
      }
      const auto denom = static_cast<double>(placements);
      bcc_measured.push_back(bcc_total / denom);
      bcc_predicted.push_back(bcc_pred / denom);
      cr_measured.push_back(cr_total / denom);
      cr_predicted.push_back(cr_pred / denom);
      const auto pred_cell = [denom](double total) {
        return std::isfinite(total) ? coupon::format_double(total / denom, 3)
                                    : std::string("-");
      };
      table.add_row({std::to_string(plan.loads[l]),
                     coupon::format_double(bcc_k / denom, 1),
                     coupon::format_double(bcc_total / denom, 3),
                     pred_cell(bcc_pred),
                     std::to_string(bcc_failed / placements),
                     coupon::format_double(cr_k / denom, 1),
                     coupon::format_double(cr_total / denom, 3),
                     pred_cell(cr_pred)});
    }
    std::fputs(table.render().c_str(), stdout);
    const auto argmin = [](const std::vector<double>& values) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < values.size(); ++i) {
        if (values[i] < values[best]) {
          best = i;
        }
      }
      return best;
    };
    std::printf("  predictor r* vs measured best r — BCC: %zu vs %zu, "
                "CR: %zu vs %zu\n\n",
                plan.loads[argmin(bcc_predicted)],
                plan.loads[argmin(bcc_measured)],
                plan.loads[argmin(cr_predicted)],
                plan.loads[argmin(cr_measured)]);
  }
  std::printf("Shape: BCC total falls steeply with r (K ~ (m/r)log(m/r)) "
              "then flattens once compute\ndominates; CR needs much "
              "larger r for the same K. The paper's r = 10 sits near\n"
              "the BCC knee in both scenarios. At r = 2 the batch count "
              "approaches n and random\nplacements stop covering — the "
              "regime Theorem 1 excludes via 'sufficiently large n'.\n");
  return 0;
}
