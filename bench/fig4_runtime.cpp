// Reproduces Fig. 4 of the paper: total running time of the uncoded,
// cyclic repetition, and BCC schemes over 100 iterations of distributed
// Nesterov logistic regression, in the two EC2 scenarios
// (n = 50 / m = 50 batches and n = 100 / m = 100 batches, r = 10).
//
// The EC2 testbed is replaced by the discrete-event cluster simulator
// (DESIGN.md §2); absolute seconds depend on the calibration constants,
// but the scheme ranking and the headline speedup percentages are the
// reproduction targets (paper: BCC 85.4% / 69.9% faster in scenario one,
// 73.0% / 69.7% in scenario two).
//
// Built on the driver's SweepPlan: per paper scenario (each with its own
// canonical seed and cluster calibration), the scheme axis runs in
// parallel on the thread pool.

#include <cstdio>
#include <vector>

#include "driver/driver.hpp"
#include "driver/predict.hpp"
#include "driver/sweep.hpp"
#include "util/util.hpp"

int main(int argc, char** argv) {
  coupon::CliFlags flags;
  flags.add_int("iterations", 100, "GD iterations per run (paper: 100)");
  if (!flags.parse(argc, argv)) {
    return 1;
  }

  std::printf("Fig. 4 — total running time, uncoded vs cyclic repetition "
              "vs BCC (simulated EC2 cluster)\n\n");

  for (const auto& scenario : {coupon::driver::ec2_scenario_one(),
                               coupon::driver::ec2_scenario_two()}) {
    coupon::driver::SweepPlan plan;
    plan.base = scenario;
    plan.base.iterations =
        static_cast<std::size_t>(flags.get_int("iterations"));
    plan.base.record_trace = false;  // bar-chart summary only
    plan.schemes = {"uncoded", "cr", "bcc"};

    const auto records = coupon::driver::run_sweep(plan);
    const auto& uncoded = records[0];
    const auto& cr = records[1];
    const auto& bcc = records[2];

    std::printf("scenario (n=%zu, m=%zu batches), %zu iterations:\n",
                uncoded.num_workers, uncoded.num_units, uncoded.iterations);
    coupon::AsciiTable table(
        {"scheme", "total running time (s)", "predicted exact (s)"});
    table.set_align(0, coupon::Align::kLeft);
    for (const auto* record : {&uncoded, &cr, &bcc}) {
      // Zero-simulation oracle prediction for the same cell; "-" when
      // the scheme/scenario pair has no exact reduction.
      auto cell = plan.base;
      cell.scheme = record->scheme;
      cell.seed = record->seed;
      const auto prediction = coupon::driver::predict_cell(cell);
      table.add_row({record->scheme_display,
                     coupon::format_double(record->total_time, 3),
                     prediction.has_value()
                         ? coupon::format_double(
                               prediction->expected_time *
                                   static_cast<double>(record->iterations),
                               3)
                         : "-"});
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf("  BCC speedup vs uncoded: %s (paper: %s)\n",
                coupon::format_percent(
                    coupon::driver::speedup_fraction(bcc, uncoded))
                    .c_str(),
                uncoded.num_workers == 50 ? "85.4%" : "73.0%");
    std::printf("  BCC speedup vs cyclic repetition: %s (paper: %s)\n\n",
                coupon::format_percent(
                    coupon::driver::speedup_fraction(bcc, cr))
                    .c_str(),
                uncoded.num_workers == 50 ? "69.9%" : "69.7%");
  }
  return 0;
}
