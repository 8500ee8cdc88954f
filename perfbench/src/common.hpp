#pragma once

/// \file common.hpp
/// Shared plumbing of the benchmark binary: the monotonic clock, robust
/// summaries (median / quartiles), the result object every workload fills,
/// and the host diagnostics printed beside the metrics.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary, process-wide fixed origin.
inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

#if defined(__x86_64__)
/// Seconds per time-stamp-counter tick, calibrated against `now_s` once at
/// start-up.
extern const double g_tsc_seconds;

/// The tracing clock: the time-stamp counter scaled to seconds, about half
/// the cost of `now_s` on a VM (the traced run reads it per latency draw).
inline double stamp() {
  return static_cast<double>(__builtin_ia32_rdtsc()) * g_tsc_seconds;
}
#else
inline double stamp() { return now_s(); }
#endif

using ClockFn = double (*)();

/// The clock a cell runner times iterations with: the tracing clock when it
/// is traced (so its phases and walls share one time base), else `now_s`.
inline ClockFn clock_for(const void* sink) {
  return sink != nullptr ? &stamp : &now_s;
}

/// Median of `values` (0 when empty). Takes a copy: callers keep order.
double median(std::vector<double> values);

/// Linear-interpolated quantile q in [0, 1] (0 when empty).
double quantile(std::vector<double> values, double q);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produces. `attempted`/`failed` count operations
/// (sweep cells, GD iterations); an operation fails when it errors or
/// fails an output check.
struct Result {
  std::vector<Metric> metrics;      ///< the final JSON line's metrics
  std::vector<std::string> notes;   ///< human-readable lines printed first
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  ///< one line per failed check

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a check outcome; a failed check marks `ops` operations failed.
  void check(bool ok, const std::string& what, std::uint64_t ops = 1);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Host state sampled before and after a workload: process CPU time,
/// involuntary context switches, `/proc/stat` steal ticks, and the time of
/// a fixed reference loop. Printed beside the metrics, never used to
/// adjust them.
class HostDiagnostics {
 public:
  /// Takes the "before" sample (including one reference-loop timing).
  HostDiagnostics();
  /// Takes the "after" sample and renders both as one JSON object.
  std::string finish();

 private:
  double wall0_ = 0.0;
  double cpu0_ = 0.0;
  long nivcsw0_ = 0;
  long long steal0_ = 0;
  double ref_before_ms_ = 0.0;
};

/// Milliseconds taken by a fixed, memory-free integer loop; a probe of
/// how fast this host runs plain code right now.
double reference_loop_ms();

/// Median of `build`'s wall time over cold runs: at least `min_reps`, and
/// more until `min_seconds` of wall time are spent, so millisecond-scale
/// builds are sampled many times. Each run forks a fresh child from this
/// process, times `build` there and exits without unwinding, so every
/// build faults in its own memory (as a user's first build does) and never
/// raises this process's peak RSS; whatever `build` keeps alive outside its
/// own scope is neither freed nor timed. Throws std::runtime_error when a
/// child cannot be made or does not finish.
double median_cold_build_s(int min_reps, double min_seconds,
                           const std::function<void()>& build);

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Formats `v` with enough digits to round-trip.
std::string fmt(double v);

}  // namespace perfbench
