// Ablation: robustness to lost messages (worker crash / packet drop),
// quantifying the paper's "Reliability" and "Universality" bullets. A
// wait-for-all scheme fails an iteration when *any* message is lost; CR
// fails once more than s = r - 1 messages are lost; BCC and FR fail only
// when every replica of some batch/block is lost — with n/B workers per
// batch on average, that stays negligible far beyond the point where the
// other schemes have collapsed.
//
// Built on the open scenario registry + SweepPlan: each drop probability
// is registered as a scenario with a single ScenarioRegistration-style
// call (no registry switch edits), then one schemes × scenarios
// cartesian sweep runs every (scheme, drop) cell in parallel on the
// thread pool.

#include <cstdio>
#include <string>
#include <vector>

#include "driver/driver.hpp"
#include "driver/scenario_registry.hpp"
#include "driver/sweep.hpp"
#include "util/util.hpp"

int main(int argc, char** argv) {
  coupon::CliFlags flags;
  flags.add_int("iterations", 300, "iterations per (scheme, drop) point");
  if (!flags.parse(argc, argv)) {
    return 1;
  }
  const auto iterations =
      static_cast<std::size_t>(flags.get_int("iterations"));

  const auto base = coupon::driver::ec2_scenario_one();
  const std::vector<double> drops = {0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4};

  // Publish the drop axis as scenarios: this is all it takes to add a
  // straggler scenario to the system — coupon_run --list now shows them
  // too, for the lifetime of this process.
  coupon::driver::SweepPlan plan;
  for (double drop : drops) {
    const std::string name = "drop_" + coupon::format_double(drop, 2);
    coupon::driver::ScenarioRegistry::instance().add(
        {.name = name,
         .description = "shifted_exp plus " +
                        coupon::format_percent(drop, 0) +
                        " i.i.d. message loss (sim only)",
         .sim_only = true,
         .builder = [drop](std::size_t) {
           auto s = coupon::driver::ScenarioRegistry::instance().build(
               "shifted_exp", 0);
           s.cluster.drop_probability = drop;
           return s;
         },
         .param_builder = {}});
    plan.scenarios.push_back(name);
  }

  plan.base = base;
  plan.base.iterations = iterations;
  plan.base.record_trace = false;  // summary table only
  plan.schemes = {"uncoded", "cr", "fr", "bcc"};

  const auto records = coupon::driver::run_sweep(plan);

  std::printf("Message-drop ablation — scenario one (n=%zu, m=%zu "
              "batches), %zu iterations per point, r = %zu\n\n",
              base.num_workers, base.num_units, iterations, base.load);
  coupon::AsciiTable table({"drop prob", "uncoded failed", "CR failed",
                            "FR failed", "BCC failed"});
  // Cell order is scheme-major, scenario-minor:
  // records[s * drops + d] is scheme s at drop point d.
  for (std::size_t d = 0; d < drops.size(); ++d) {
    std::vector<std::string> row = {coupon::format_double(drops[d], 2)};
    for (std::size_t s = 0; s < plan.schemes.size(); ++s) {
      const auto& record = records[s * drops.size() + d];
      row.push_back(coupon::format_percent(
          static_cast<double>(record.failures) /
              static_cast<double>(iterations),
          1));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nExpected shape: uncoded fails ~1-(1-p)^n (any loss is "
              "fatal); CR fails once losses\nexceed s = r-1 = %zu of %zu; "
              "FR and BCC fail only when a whole batch/block loses\nall "
              "its replicas — with ~n/B = %zu replicas per batch, BCC "
              "still recovers most\niterations at 40%% drop.\n",
              base.load - 1, base.num_workers,
              base.num_workers /
                  ((base.num_units + base.load - 1) / base.load));
  return 0;
}
