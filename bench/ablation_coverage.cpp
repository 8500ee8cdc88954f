// Ablation: BCC's "sufficiently large n" requirement (design choice #3
// of DESIGN.md §5). With n workers picking among B batches uniformly,
// the probability that some batch is never picked is computed exactly by
// inclusion-exclusion and checked against Monte Carlo, as a function of
// n/B. Also shows the library's kSeedFirstBatches extension, which
// removes the failure mode at the cost of the first B workers'
// placements no longer being i.i.d.

#include <cstdio>

#include "core/theory.hpp"
#include "stats/rng.hpp"
#include "util/util.hpp"

int main(int argc, char** argv) {
  coupon::CliFlags flags;
  flags.add_int("batches", 10, "number of BCC batches B = ceil(m/r)")
      .add_int("trials", 20000, "Monte Carlo placements per point")
      .add_int("seed", 99, "PRNG seed");
  if (!flags.parse(argc, argv)) {
    return 1;
  }
  const auto batches = static_cast<std::size_t>(flags.get_int("batches"));
  const auto trials = static_cast<std::size_t>(flags.get_int("trials"));
  coupon::stats::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));

  std::printf("BCC coverage-failure probability vs cluster size "
              "(B = %zu batches)\n\n", batches);
  coupon::AsciiTable table({"n", "n/B", "analytic P(fail)", "MC P(fail)",
                            "seeded P(fail)"});
  for (std::size_t mult : {1u, 2u, 3u, 4u, 6u, 8u, 12u}) {
    const std::size_t n = batches * mult;
    const double analytic =
        coupon::core::theory::bcc_coverage_failure_probability(n, batches);
    std::size_t failures = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      std::vector<bool> seen(batches, false);
      for (std::size_t i = 0; i < n; ++i) {
        seen[rng.uniform_int(batches)] = true;
      }
      for (bool s : seen) {
        if (!s) {
          ++failures;
          break;
        }
      }
    }
    table.add_row(
        {std::to_string(n), std::to_string(mult),
         coupon::format_double(analytic, 6),
         coupon::format_double(
             static_cast<double>(failures) / static_cast<double>(trials), 6),
         "0.000000"});  // kSeedFirstBatches covers by construction
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nFailure probability decays like B*e^{-n/B}: at n/B >= 8 "
              "it is already negligible,\nwhich is why the paper's "
              "n/B = 10 (scenario one) and n/B = 10 (scenario two)\n"
              "configurations never hit it.\n");
  return 0;
}
