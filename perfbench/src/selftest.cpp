// Decorator-transparency self-test of the benchmark, at small sizes: for
// each of the four workload shapes, a run through the tracing decorators
// must produce bitwise the outputs of the plain run (and, for the sweeps,
// of driver::run_sweep itself). Exit code 0 = every case passed.
//
//   perfbench_selftest

#include <cstdio>
#include <string>
#include <vector>

#include "driver/sweep.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) {
    ++g_failures;
  }
}

void sweep_case(const perfbench::SweepShape& shape, const std::string& name) {
  const coupon::driver::SweepPlan plan = perfbench::make_plan(shape, 7);
  const auto cells = coupon::driver::expand_plan(plan);
  coupon::driver::SweepOptions options;
  options.threads = 2;
  const auto records = coupon::driver::run_sweep(plan, options);
  bool ok = records.size() == cells.size();
  perfbench::TraceSink sink;
  for (std::size_t c = 0; ok && c < cells.size(); ++c) {
    perfbench::BuiltCell plain(cells[c].config, nullptr);
    perfbench::BuiltCell traced(cells[c].config, &sink);
    perfbench::PhaseTotals phases;
    ok = perfbench::same_record(plain.run(nullptr), records[c]) &&
         perfbench::same_record(traced.run(&phases), records[c]) &&
         phases.iterations == cells[c].config.iterations &&
         phases.iteration_s.size() == phases.iterations;
  }
  expect(ok, name + ": plain and traced cells reproduce run_sweep");
  expect(sink.offers > 0 && (shape.train ? sink.encodes > 0 : sink.draws > 0),
         name + ": the decorators saw the traffic");
}

void giant_case() {
  perfbench::GiantShape shape;
  shape.workers = 2000;
  shape.load = 10;
  perfbench::TraceSink sink;
  perfbench::GiantCell plain(shape, 3, nullptr);
  perfbench::GiantCell traced(shape, 3, &sink);
  bool ok = true;
  for (int i = 0; i < 20; ++i) {
    const auto a = plain.step();
    const auto b = traced.step();
    ok = ok && a.total_time == b.total_time &&
         a.compute_time == b.compute_time && a.comm_time == b.comm_time &&
         a.workers_heard == b.workers_heard &&
         a.units_received == b.units_received && a.recovered == b.recovered;
  }
  expect(ok, "giant shape: traced kernel iterations equal plain ones");
  expect(sink.draws == 20u * 2000u, "giant shape: every draw was stamped");
}

void live_case() {
  perfbench::LiveShape shape;
  shape.features = 8;
  shape.examples_per_unit = 5;
  const auto plain = perfbench::run_live(shape, 5, 30, nullptr, nullptr);
  perfbench::TraceSink sink;
  perfbench::SharedTraceSinks workers(shape.workers);
  const auto traced = perfbench::run_live(shape, 5, 30, &sink, workers.data());
  expect(plain.report.weights == traced.report.weights &&
             plain.final_loss == traced.final_loss,
         "process shape: traced run equals the plain run");
  expect(workers.total().encodes >= 30u * shape.workers && sink.offers > 0,
         "process shape: worker counters crossed the fork");
  expect(plain.cycle_s.size() == 30, "process shape: one stamp per iteration");
}

}  // namespace

int main() {
  perfbench::SweepShape sim;
  sim.schemes = {"uncoded", "cr", "fr", "bcc", "gc_cyclic"};
  sim.scenarios = {"shifted_exp", "lossy"};
  sim.workers = {10};
  sim.load = 2;
  sim.seeds = 2;
  sim.iterations = 30;
  sweep_case(sim, "sim sweep shape");

  perfbench::SweepShape train;
  train.schemes = {"bcc", "gc_cyclic"};
  train.scenarios = {"shifted_exp"};
  train.workers = {8};
  train.load = 2;
  train.seeds = 3;
  train.iterations = 12;
  train.train = true;
  train.features = 6;
  train.examples_per_unit = 5;
  train.target_loss = 0.69;
  sweep_case(train, "train sweep shape");

  giant_case();
  live_case();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
