// Reproduces Table II of the paper: breakdown of the running times of
// the uncoded, cyclic repetition, and BCC schemes in scenario two
// (n = 100 workers, m = 100 data batches, r = 10, 100 iterations).
//
// Paper reference values:
//   scheme   K     comm (s)  comp (s)  total (s)
//   uncoded  100   31.567    1.453     33.020
//   CR        91   24.698    4.784     29.482
//   BCC       25    7.246    1.685      8.931
//
// Built on the driver's SweepPlan: the scheme axis runs in parallel on
// the thread pool with per-cell deterministic seeding, and the
// table/CSV rendering is shared with table1 and fig4.

#include <cstdio>

#include "driver/driver.hpp"
#include "driver/predict.hpp"
#include "driver/sweep.hpp"
#include "util/util.hpp"

int main(int argc, char** argv) {
  coupon::CliFlags flags;
  flags.add_int("iterations", 100, "GD iterations per run (paper: 100)")
      .add_string("csv", "", "also write the breakdown as CSV to this path");
  if (!flags.parse(argc, argv)) {
    return 1;
  }

  coupon::driver::SweepPlan plan;
  plan.base = coupon::driver::ec2_scenario_two();
  plan.base.iterations = static_cast<std::size_t>(flags.get_int("iterations"));
  plan.base.record_trace = false;  // summary table + CSV only
  plan.schemes = {"uncoded", "cr", "bcc"};

  const auto records = coupon::driver::run_sweep(plan);

  std::printf("Table II — running-time breakdown, scenario two (n=%zu, "
              "m=%zu batches)\n\n", plan.base.num_workers,
              plan.base.num_units);
  std::fputs(coupon::driver::summary_table(records).render().c_str(), stdout);
  std::fputs(coupon::driver::measured_vs_predicted_table(plan.base, records)
                 .render()
                 .c_str(),
             stdout);
  std::printf(
      "\nPaper (EC2 t2.micro): uncoded K=100 total=33.020s, CR K=91 "
      "total=29.482s, BCC K=25 total=8.931s.\n"
      "Shape targets: K ordering ~29 < 91 < 100, communication >> "
      "computation, total ~ proportional to K.\n");

  const std::string csv_path = flags.get_string("csv");
  if (!csv_path.empty() &&
      !coupon::driver::write_records_to_path(
          csv_path, records, coupon::driver::RecordFormat::kSummaryCsv)) {
    return 1;
  }
  return 0;
}
