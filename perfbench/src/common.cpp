#include "common.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

#if defined(__x86_64__)
namespace {

double calibrate_tsc() {
  const double t0 = now_s();
  const auto c0 = __builtin_ia32_rdtsc();
  while (now_s() - t0 < 0.02) {
  }
  const double t1 = now_s();
  const auto c1 = __builtin_ia32_rdtsc();
  return (t1 - t0) / static_cast<double>(c1 - c0);
}

}  // namespace

const double g_tsc_seconds = calibrate_tsc();
#endif

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void Result::check(bool ok, const std::string& what, std::uint64_t ops) {
  if (!ok) {
    failed += ops;
    check_failures.push_back(what);
  }
}

namespace {

double process_cpu_s(long* nivcsw) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  if (nivcsw != nullptr) {
    *nivcsw = usage.ru_nivcsw;
  }
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Total steal ticks over all CPUs from the first line of /proc/stat
/// (the 8th value), or 0 where the file is unavailable.
long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") {
    return 0;
  }
  for (long long& x : v) {
    if (!(in >> x)) {
      return 0;
    }
  }
  return v[7];
}

}  // namespace

double reference_loop_ms() {
  // A dependent multiply-xorshift chain: no memory traffic, no
  // vectorization, so its time tracks the core's current speed alone.
  const double t0 = now_s();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
  }
  const double t1 = now_s();
  // Keep the result observable so the loop cannot be removed.
  volatile std::uint64_t sink = x;
  (void)sink;
  return 1e3 * (t1 - t0);
}

namespace {

double cold_build_s(const std::function<void()>& build) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("set-up: pipe() failed");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("set-up: fork() failed");
  }
  if (pid == 0) {
    close(fds[0]);
    double wall = -1.0;
    try {
      const double t0 = now_s();
      build();
      wall = now_s() - t0;
    } catch (...) {
    }
    const ssize_t sent = write(fds[1], &wall, sizeof wall);
    _exit(sent == static_cast<ssize_t>(sizeof wall) ? 0 : 1);
  }
  close(fds[1]);
  double wall = -1.0;
  ssize_t got = 0;
  do {
    got = read(fds[0], &wall, sizeof wall);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != static_cast<ssize_t>(sizeof wall) || !(wall >= 0.0) ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up: a build in a child process failed");
  }
  return wall;
}

}  // namespace

double median_cold_build_s(int min_reps, double min_seconds,
                           const std::function<void()>& build) {
  std::vector<double> walls;
  const double start = now_s();
  while (walls.size() < static_cast<std::size_t>(min_reps) ||
         now_s() - start < min_seconds) {
    walls.push_back(cold_build_s(build));
  }
  return median(walls);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

HostDiagnostics::HostDiagnostics() {
  ref_before_ms_ = reference_loop_ms();
  wall0_ = now_s();
  cpu0_ = process_cpu_s(&nivcsw0_);
  steal0_ = steal_ticks();
}

std::string HostDiagnostics::finish() {
  long nivcsw = 0;
  const double cpu = process_cpu_s(&nivcsw) - cpu0_;
  const double wall = now_s() - wall0_;
  const long long steal = steal_ticks() - steal0_;
  const double ref_after_ms = reference_loop_ms();
  std::ostringstream out;
  out << "{\"cpu_per_wall\": " << fmt(wall > 0 ? cpu / wall : 0.0)
      << ", \"involuntary_ctx_switches\": " << (nivcsw - nivcsw0_)
      << ", \"steal_ticks\": " << steal
      << ", \"ref_loop_ms_before\": " << fmt(ref_before_ms_)
      << ", \"ref_loop_ms_after\": " << fmt(ref_after_ms) << "}";
  return out.str();
}

}  // namespace perfbench
