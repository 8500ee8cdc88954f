#include "runtime/process_cluster.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <ctime>
#include <stdexcept>
#include <utility>

#include "comm/tcp_transport.hpp"
#include "runtime/transport_provider.hpp"
#include "runtime/worker.hpp"
#include "util/assert.hpp"

namespace coupon::runtime {

namespace {

constexpr auto kHandshakeTimeout = std::chrono::milliseconds(10000);
constexpr auto kReapDeadline = std::chrono::milliseconds(5000);

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
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

/// The worker-process body: the rank handshake, the shared worker loop,
/// and the process exit each way the loop can end. Runs in the forked
/// child, which inherited `scheme` and `source` from the master's memory
/// image; never returns.
[[noreturn]] void worker_process_main(const core::Scheme& scheme,
                                      const core::UnitGradientSource& source,
                                      std::size_t worker_index,
                                      std::uint64_t seed,
                                      const ProcessTrainOptions& options,
                                      int stream_fd, bool announce_rank) {
  const std::size_t rank = worker_index + 1;
  auto transport = comm::TcpTransport::worker(stream_fd, rank,
                                              scheme.num_workers() + 1);
  if (announce_rank) {
    // TCP mode: accepted connections arrive in arbitrary order, so the
    // first frame names the rank behind this stream.
    comm::Message hello;
    hello.dest = 0;
    hello.tag = comm::kTagHello;
    hello.meta = {static_cast<std::int64_t>(rank)};
    if (!transport->send(std::move(hello))) {
      ::_exit(1);
    }
  }
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

  // Preferred wiring: loopback TCP through an ephemeral-port listener.
  // Sandboxes that forbid it fall back to AF_UNIX socketpairs created
  // before the forks; both carry the identical framing.
  auto listener = comm::TcpListener::open();
  std::vector<int> parent_fds(n, -1);
  std::vector<int> child_fds(n, -1);
  if (listener == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      int pair[2];
      if (!comm::make_stream_socketpair(pair)) {
        for (std::size_t j = 0; j < i; ++j) {
          close_if_open(parent_fds[j]);
          close_if_open(child_fds[j]);
        }
        throw std::runtime_error(
            "process runtime: socketpair() failed while wiring workers");
      }
      parent_fds[i] = pair[0];
      child_fds[i] = pair[1];
    }
  }

  std::vector<pid_t> pids;
  pids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      kill_and_reap(pids);
      for (std::size_t j = 0; j < n; ++j) {
        close_if_open(parent_fds[j]);
        close_if_open(child_fds[j]);
      }
      throw std::runtime_error("process runtime: fork() failed");
    }
    if (pid == 0) {
      // Child: sever every descriptor that is not this worker's own
      // stream. Holding a copy of a sibling's socket would keep that
      // socket open past the sibling's death and mask its EOF — the
      // crash signal the master relies on.
      if (listener != nullptr) {
        ::close(listener->fd());
      }
      for (std::size_t j = 0; j < n; ++j) {
        close_if_open(parent_fds[j]);
        if (j != i) {
          close_if_open(child_fds[j]);
        }
      }
      int stream_fd = child_fds[i];
      if (stream_fd < 0) {
        stream_fd = comm::tcp_connect_loopback(listener->port(),
                                               kHandshakeTimeout);
        if (stream_fd < 0) {
          ::_exit(1);
        }
      }
      worker_process_main(scheme_, source_, i, seeds[i], options, stream_fd,
                          /*announce_rank=*/listener != nullptr);
    }
    pids.push_back(pid);
  }
  for (std::size_t i = 0; i < n; ++i) {
    close_if_open(child_fds[i]);  // the children own these now
  }

  // Collect the worker streams, rank-ordered.
  std::vector<int> fds(n, -1);
  if (listener != nullptr) {
    auto handshake_failed = [&](int pending_fd) {
      if (pending_fd >= 0) {
        ::close(pending_fd);
      }
      for (std::size_t j = 0; j < n; ++j) {
        close_if_open(fds[j]);
      }
      kill_and_reap(pids);
    };
    for (std::size_t k = 0; k < n; ++k) {
      const int fd = listener->accept_fd(kHandshakeTimeout);
      comm::Message hello;
      const bool ok =
          fd >= 0 &&
          comm::recv_frame(fd, kHandshakeTimeout, hello) ==
              comm::FrameStatus::kMessage &&
          hello.tag == comm::kTagHello && hello.meta.size() == 1 &&
          hello.meta[0] >= 1 &&
          hello.meta[0] <= static_cast<std::int64_t>(n) &&
          fds[static_cast<std::size_t>(hello.meta[0]) - 1] < 0;
      if (!ok) {
        handshake_failed(fd);
        throw std::runtime_error(
            "process runtime: worker connection handshake failed");
      }
      fds[static_cast<std::size_t>(hello.meta[0]) - 1] = fd;
    }
  } else {
    fds = std::move(parent_fds);
  }

  ProcessTrainResult result;
  {
    auto transport = comm::TcpTransport::master(std::move(fds));
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
  }
  reap_with_deadline(pids);
  return result;
}

}  // namespace coupon::runtime
