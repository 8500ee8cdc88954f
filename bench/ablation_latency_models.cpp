// Ablation: which of the paper's conclusions survive outside the Eq. 15
// shifted-exponential world? One SweepPlan runs uncoded/CR/FR/BCC across
// every registered latency-model scenario (latency_model.hpp):
//
//   shifted_exp  the paper's law — H_n waiting times exact (Eq. 15)
//   heavy_tail   Pareto(1.5): infinite variance, E[max] ~ n^(2/3)
//   weibull      stretched-exponential tail, E[max] ~ (log n)^(1/k)
//   bursty       sporadic 10x slowdowns (Bitar et al.'s regime)
//   markov       persistent stragglers, correlated across iterations
//
// Expected shape: the *combinatorial* ordering (BCC's recovery threshold
// ~ (m/r) log(m/r) << CR's m-r+1 < uncoded's m) is law-independent and
// holds in every column; the *margins* move — heavy tails punish
// wait-for-all schemes hardest, so BCC's speedup grows as the tail gets
// heavier, while under markov the per-iteration analysis still predicts
// means but run totals spread (see theory.hpp on Eq. 15 applicability).

#include <cstdio>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "driver/driver.hpp"
#include "driver/sweep.hpp"
#include "util/util.hpp"

int main(int argc, char** argv) {
  coupon::CliFlags flags;
  flags.add_int("iterations", 200, "iterations per (scheme, model) point");
  if (!flags.parse(argc, argv)) {
    return 1;
  }

  coupon::driver::SweepPlan plan;
  plan.base = coupon::driver::ec2_scenario_one();
  plan.base.iterations =
      static_cast<std::size_t>(flags.get_int("iterations"));
  plan.base.record_trace = false;  // summary table only
  plan.schemes = {"uncoded", "cr", "fr", "bcc"};
  plan.scenarios = {"shifted_exp", "heavy_tail", "weibull", "bursty",
                    "markov"};

  const auto records = coupon::driver::run_sweep(plan);

  std::printf("Latency-model ablation — n=%zu m=%zu r=%zu, %zu iterations "
              "per cell\n\n",
              plan.base.num_workers, plan.base.num_units, plan.base.load,
              plan.base.iterations);
  // Cell order is scheme-major, scenario-minor.
  const std::size_t num_scenarios = plan.scenarios.size();
  for (std::size_t d = 0; d < num_scenarios; ++d) {
    std::printf("--- scenario %s ---\n", plan.scenarios[d].c_str());
    std::vector<coupon::driver::RunRecord> rows;
    for (std::size_t s = 0; s < plan.schemes.size(); ++s) {
      rows.push_back(records[s * num_scenarios + d]);
    }
    std::fputs(coupon::driver::summary_table(rows).render().c_str(),
               stdout);
    const double speedup =
        coupon::driver::speedup_fraction(rows.back(), rows.front());
    std::printf("BCC vs uncoded: %s faster\n\n",
                coupon::format_percent(speedup, 1).c_str());
  }

  std::printf(
      "The threshold ordering is combinatorial and survives every model; "
      "the margins\ntrack the tail weight — Eq. 15's H_n predictions are "
      "exact only in the first\ncolumn block (see core/theory.hpp).\n");
  return 0;
}
