// Reproduces Table I of the paper: breakdown of the running times of the
// uncoded, cyclic repetition, and BCC schemes in scenario one (n = 50
// workers, m = 50 data batches, r = 10, 100 iterations).
//
// Paper reference values:
//   scheme   K    comm (s)  comp (s)  total (s)
//   uncoded  50   28.556    0.230     28.786
//   CR       41   12.031    1.959     13.990
//   BCC      11    3.043    1.162      4.205
//
// Built on the driver's SweepPlan: the scheme axis runs in parallel on
// the thread pool with per-cell deterministic seeding, and the
// table/CSV rendering is shared with table2 and fig4.

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
  plan.base = coupon::driver::ec2_scenario_one();
  plan.base.iterations = static_cast<std::size_t>(flags.get_int("iterations"));
  plan.base.record_trace = false;  // summary table + CSV only
  plan.schemes = {"uncoded", "cr", "bcc"};

  const auto records = coupon::driver::run_sweep(plan);

  std::printf("Table I — running-time breakdown, scenario one (n=%zu, m=%zu "
              "batches)\n\n", plan.base.num_workers, plan.base.num_units);
  std::fputs(coupon::driver::summary_table(records).render().c_str(), stdout);
  std::fputs(coupon::driver::measured_vs_predicted_table(plan.base, records)
                 .render()
                 .c_str(),
             stdout);
  std::printf(
      "\nPaper (EC2 t2.micro): uncoded K=50 total=28.786s, CR K=41 "
      "total=13.990s, BCC K=11 total=4.205s.\n"
      "Shape targets: K ordering 11 < 41 < 50, communication >> "
      "computation, total ~ proportional to K.\n");

  const std::string csv_path = flags.get_string("csv");
  if (!csv_path.empty() &&
      !coupon::driver::write_records_to_path(
          csv_path, records, coupon::driver::RecordFormat::kSummaryCsv)) {
    return 1;
  }
  return 0;
}
