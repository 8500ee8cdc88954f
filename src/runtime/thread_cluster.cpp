#include "runtime/thread_cluster.hpp"

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "comm/network.hpp"
#include "comm/transport.hpp"
#include "runtime/transport_provider.hpp"
#include "runtime/worker.hpp"
#include "util/assert.hpp"

namespace coupon::runtime {

namespace {

constexpr std::size_t kMasterRank = 0;

/// One run's worker threads. Closing the network ends each worker's loop
/// (kClosed, the in-process EOF) once its mailbox drains, so the
/// destructor can join on every exit path, exceptions included.
class WorkerThreads {
 public:
  explicit WorkerThreads(comm::InProcNetwork& network) : network_(network) {}
  WorkerThreads(const WorkerThreads&) = delete;
  WorkerThreads& operator=(const WorkerThreads&) = delete;

  ~WorkerThreads() {
    network_.close_all();
    for (auto& thread : threads_) {
      thread.join();
    }
  }

  template <typename Body>
  void start(Body&& body) {
    threads_.emplace_back(std::forward<Body>(body));
  }

 private:
  comm::InProcNetwork& network_;
  std::vector<std::thread> threads_;
};

}  // namespace

ThreadCluster::ThreadCluster(const core::Scheme& scheme,
                             const core::UnitGradientSource& source,
                             std::uint64_t straggler_seed)
    : scheme_(scheme), source_(source), straggler_seed_(straggler_seed) {
  COUPON_ASSERT(source.num_units() == scheme.num_units());
}

engine::TrainReport ThreadCluster::train(opt::IterativeOptimizer& optimizer,
                                         const TrainOptions& options) {
  const std::size_t n = scheme_.num_workers();
  const std::vector<std::uint64_t> seeds = worker_seeds(straggler_seed_, n);
  comm::InProcNetwork network(n + 1);
  WorkerThreads workers(network);
  for (std::size_t i = 0; i < n; ++i) {
    workers.start([this, &network, &options, &seeds, i] {
      comm::InProcessTransport endpoint(network, i + 1);
      // In-process, only the master sends to a worker and it sends only
      // broadcasts, so the loop always ends in kShutdown.
      serve_worker(endpoint, scheme_, source_, i, options.straggler,
                   seeds[i]);
    });
  }

  // The shared master protocol over an in-process endpoint: identical
  // broadcast/collect/stale-skip semantics to the socket runtime, with
  // no worker_timeout — in-process threads always reply.
  comm::InProcessTransport master(network, kMasterRank);
  TransportProvider provider(
      master, n,
      {.worker_timeout = std::chrono::milliseconds(0),
       .elasticity = options.elasticity});
  engine::TrainingEngine protocol(scheme_, source_, provider);
  return protocol.train(optimizer, options);  // the engine::TrainOptions base
}

}  // namespace coupon::runtime
