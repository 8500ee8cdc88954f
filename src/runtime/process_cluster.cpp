#include "runtime/process_cluster.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <ctime>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "comm/tcp_transport.hpp"
#include "runtime/transport_provider.hpp"
#include "runtime/worker.hpp"
#include "util/assert.hpp"

namespace coupon::runtime {

namespace {

constexpr auto kReapDeadline = std::chrono::milliseconds(5000);

/// Held from a worker stream's creation until the parent has closed the
/// worker's end, so that end is open in the parent only while the lock
/// is held. Every cluster in the process forks under it, so when callers
/// train clusters from several threads at once, no child of one cluster
/// inherits another's worker end and keeps it open past that worker's
/// death, which would hide the EOF the master waits for. (run_sweep
/// never does this: it runs process cells one at a time.)
std::mutex wiring_mutex;

void close_all(const std::vector<int>& fds) {
  for (int fd : fds) {
    ::close(fd);
  }
}

/// SIGKILLs and reaps every live pid — the error-path teardown.
void kill_and_reap(std::vector<pid_t>& pids) {
  for (pid_t pid : pids) {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
    }
  }
  for (pid_t& pid : pids) {
    if (pid > 0) {
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
  }
}

/// Reaps workers that were told to shut down (or already died). Workers
/// exit as soon as they see the shutdown tag or EOF, so the deadline only
/// bites when a worker is wedged — those get SIGKILL.
void reap_with_deadline(std::vector<pid_t>& pids) {
  const auto deadline = std::chrono::steady_clock::now() + kReapDeadline;
  std::size_t live = pids.size();
  while (live > 0 && std::chrono::steady_clock::now() < deadline) {
    live = 0;
    for (pid_t& pid : pids) {
      if (pid <= 0) {
        continue;
      }
      if (::waitpid(pid, nullptr, WNOHANG) == pid) {
        pid = -1;
      } else {
        ++live;
      }
    }
    if (live > 0) {
      struct timespec nap = {0, 2 * 1000 * 1000};  // 2 ms
      ::nanosleep(&nap, nullptr);
    }
  }
  kill_and_reap(pids);
}

/// The worker-process body: the shared worker loop and the process exit
/// each way the loop can end. Runs in the forked child, which inherited
/// `scheme` and `source` from the master's memory image; never returns.
[[noreturn]] void worker_process_main(const core::Scheme& scheme,
                                      const core::UnitGradientSource& source,
                                      std::size_t worker_index,
                                      std::uint64_t seed,
                                      const ProcessTrainOptions& options,
                                      int stream_fd) {
  auto transport = comm::TcpTransport::worker(stream_fd, worker_index + 1,
                                              scheme.num_workers() + 1);
  std::optional<std::size_t> crash_at;
  if (options.crash && options.crash->worker == worker_index) {
    crash_at = options.crash->iteration;
  }
  switch (serve_worker(*transport, scheme, source, worker_index,
                       options.straggler, seed, crash_at)) {
    case WorkerExit::kShutdown:
      ::_exit(0);  // orderly shutdown, or the master is gone (EOF)
    case WorkerExit::kBadMessage:
      ::_exit(1);  // protocol violation; die visibly (master sees EOF)
    case WorkerExit::kStopped:
      // The crash drill: a real SIGKILL mid-iteration — the broadcast
      // was consumed, the reply will never be sent, the kernel closes
      // the socket.
      ::kill(::getpid(), SIGKILL);
  }
  ::_exit(1);
}

}  // namespace

bool ProcessCluster::supported() {
  static const bool available = [] {
    if (!comm::socketpair_available() && !comm::tcp_loopback_available()) {
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      return false;
    }
    if (pid == 0) {
      ::_exit(0);
    }
    ::waitpid(pid, nullptr, 0);
    return true;
  }();
  return available;
}

ProcessCluster::ProcessCluster(const core::Scheme& scheme,
                               const core::UnitGradientSource& source,
                               std::uint64_t straggler_seed)
    : scheme_(scheme), source_(source), straggler_seed_(straggler_seed) {
  COUPON_ASSERT(source.num_units() == scheme.num_units());
}

ProcessTrainResult ProcessCluster::train(opt::IterativeOptimizer& optimizer,
                                         const ProcessTrainOptions& options) {
  if (!supported()) {
    throw std::runtime_error(
        "the process runtime needs fork() and stream sockets (loopback TCP "
        "or AF_UNIX socketpair), unavailable in this sandbox — use "
        "--runtime threaded");
  }
  const std::size_t n = scheme_.num_workers();

  const std::vector<std::uint64_t> seeds = worker_seeds(straggler_seed_, n);

  // One procedure for every worker: make its stream pair, fork, and let
  // each side close the other's end. Worker i's stream is master_fds[i],
  // so the rank behind a stream is known from how it was built.
  std::vector<int> master_fds;
  std::vector<pid_t> pids;
  master_fds.reserve(n);
  pids.reserve(n);
  auto abandon = [&] {
    close_all(master_fds);
    kill_and_reap(pids);
  };
  for (std::size_t i = 0; i < n; ++i) {
    int pair[2];
    pid_t pid = -1;
    {
      const std::lock_guard<std::mutex> wiring(wiring_mutex);
      if (!comm::make_stream_pair(pair)) {
        abandon();
        throw std::runtime_error(
            "process runtime: cannot create a worker stream");
      }
      pid = ::fork();
      if (pid == 0) {
        // Child: keep only this worker's end. A master end left open
        // here would outlive a dead master, and the worker would never
        // see EOF.
        close_all(master_fds);
        ::close(pair[0]);
        worker_process_main(scheme_, source_, i, seeds[i], options, pair[1]);
      }
      ::close(pair[1]);
    }
    if (pid < 0) {
      ::close(pair[0]);
      abandon();
      throw std::runtime_error("process runtime: fork() failed");
    }
    master_fds.push_back(pair[0]);
    pids.push_back(pid);
  }

  ProcessTrainResult result;
  try {
    auto transport = comm::TcpTransport::master(std::move(master_fds));
    TransportProvider provider(*transport, n,
                               {.worker_timeout = options.worker_timeout,
                                .elasticity = options.elasticity});
    engine::TrainingEngine protocol(scheme_, source_, provider);
    result.report =
        protocol.train(optimizer, options);  // the engine::TrainOptions base
    result.workers_lost = provider.workers_lost();
    result.timed_out_iterations = provider.timed_out_iterations();

    // Orderly shutdown for the survivors; the dead get reaped below.
    for (std::size_t i = 0; i < n; ++i) {
      if (provider.worker_alive(i)) {
        comm::Message bye;
        bye.dest = static_cast<std::int32_t>(i + 1);
        bye.tag = comm::kTagShutdown;
        transport->send(std::move(bye));
      }
    }
    transport->close();
  } catch (...) {
    reap_with_deadline(pids);  // the transport's close told them to exit
    throw;
  }
  reap_with_deadline(pids);
  return result;
}

}  // namespace coupon::runtime
