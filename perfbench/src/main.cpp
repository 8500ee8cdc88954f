// The benchmark binary: runs one workload in this process and prints, as
// the last line of stdout, one JSON object with the keys correct,
// attempted, failed, and metrics. Usually launched through perfbench/run.py,
// which builds it first.
//
//   perfbench --workload sim_sweep --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md in this directory). Lines before the JSON are notes and
// the host diagnostics, which never adjust a metric.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1]\nworkloads:";
  for (const std::string& name : perfbench::workload_names()) {
    std::cerr << ' ' << name;
  }
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage();
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) {
    return usage();
  }

  perfbench::HostDiagnostics host;
  perfbench::Result result;
  try {
    result = perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << ": " << e.what() << '\n';
    return 1;
  }
  for (perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.check(false, m.name + " is not finite");
      m.value = 0.0;
    }
  }

  for (const std::string& line : result.notes) {
    std::cout << "# " << line << '\n';
  }
  for (const std::string& line : result.check_failures) {
    std::cout << "# CHECK FAILED: " << line << '\n';
  }
  for (const perfbench::Metric& m : result.metrics) {
    std::cout << "# " << m.name << " = " << perfbench::fmt(m.value) << ' '
              << m.unit << '\n';
  }
  std::cout << "# host " << host.finish() << '\n';

  std::cout << "{\"correct\": "
            << (result.check_failures.empty() ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
              << perfbench::fmt(m.value) << ", \"unit\": \"" << m.unit
              << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
