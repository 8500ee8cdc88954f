// Compares all five gradient-coding schemes on the same simulated
// cluster: recovery threshold K, communication load L, per-phase times,
// and total running time — an interactive version of the paper's Fig. 4
// with the two extra schemes (simple randomized, fractional repetition)
// included. One SweepPlan over the scheme axis; the flags describe the
// cluster, which reaches the simulator as `cluster_override`.
//
//   $ ./compare_schemes [--workers=50] [--units=50] [--load=10] ...

#include <cstdio>
#include <exception>
#include <memory>

#include "driver/driver.hpp"
#include "driver/sweep.hpp"
#include "simulate/cluster_config.hpp"
#include "util/util.hpp"

int main(int argc, char** argv) {
  coupon::CliFlags flags;
  flags.add_int("workers", 50, "number of workers n")
      .add_int("units", 50, "number of gradient units m")
      .add_int("load", 10, "computational load r (units per worker)")
      .add_int("iterations", 100, "GD iterations")
      .add_double("transfer_ms", 3.2, "master ingress ms per gradient unit")
      .add_double("compute_ms", 1.0, "deterministic compute ms per unit")
      .add_double("straggle", 950.0, "compute straggle parameter mu")
      .add_int("seed", 11, "PRNG seed");
  if (!flags.parse(argc, argv)) {
    return 1;
  }

  const auto n = static_cast<std::size_t>(flags.get_int("workers"));
  const auto m = static_cast<std::size_t>(flags.get_int("units"));
  const auto r = static_cast<std::size_t>(flags.get_int("load"));
  coupon::driver::SweepPlan plan;
  plan.base.num_workers = n;
  plan.base.load = r;
  plan.base.iterations =
      static_cast<std::size_t>(flags.get_int("iterations"));
  plan.base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  plan.base.record_trace = false;  // summary table only
  plan.units = {m};  // an empty units axis would make m track n
  coupon::simulate::ClusterConfig cluster;
  cluster.unit_transfer_seconds = flags.get_double("transfer_ms") * 1e-3;
  cluster.compute_shift = flags.get_double("compute_ms") * 1e-3;
  cluster.compute_straggle = flags.get_double("straggle");
  plan.base.cluster_override =
      std::make_shared<const coupon::simulate::ClusterConfig>(cluster);

  // CR and FR need m = n, and FR also r | n.
  plan.schemes = {"uncoded", "simple_random"};
  if (m == n) {
    plan.schemes.push_back("cr");
    if (r > 0 && n % r == 0) {
      plan.schemes.push_back("fr");
    }
  }
  plan.schemes.push_back("bcc");

  std::vector<coupon::driver::RunRecord> records;
  try {
    records = coupon::driver::run_sweep(plan);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compare_schemes: %s\n", e.what());
    return 1;
  }

  std::printf("Scheme comparison — n = %zu workers, m = %zu units, "
              "r = %zu, %zu iterations\n\n",
              n, m, r, plan.base.iterations);
  coupon::AsciiTable table({"scheme", "K (mean)", "L (mean units)",
                            "comm (s)", "comp (s)", "total (s)",
                            "vs uncoded"});
  table.set_align(0, coupon::Align::kLeft);
  const auto& baseline = records.front();
  for (const auto& record : records) {
    table.add_row(
        {record.scheme_display,
         coupon::format_double(record.recovery_threshold, 1),
         coupon::format_double(record.mean_units, 1),
         coupon::format_double(record.comm_time, 3),
         coupon::format_double(record.compute_time, 3),
         coupon::format_double(record.total_time, 3),
         &record == &baseline
             ? std::string("—")
             : coupon::format_percent(
                   coupon::driver::speedup_fraction(record, baseline))});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nReading the table: in the communication-dominated regime "
              "total time tracks L, the\nunits the master receives. BCC "
              "pairs the near-minimal K of the randomized scheme\nwith the "
              "unit-sized messages of the coded schemes, which puts it close "
              "to\nfractional repetition (listed only when r | n and m = n) "
              "and far below the rest.\n");
  return 0;
}
