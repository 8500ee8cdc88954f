#pragma once

/// \file network.hpp
/// In-process rank-addressed message-passing fabric.
///
/// This substitutes for MPI in the threaded runtime: every participant
/// (rank 0 = master, ranks 1..n = workers) owns a mailbox; `send` routes a
/// message to the destination mailbox; `recv` blocks on the caller's own
/// mailbox. Messages round-trip through byte serialization so the code
/// path exercised is the same one a socket transport would use.

#include <memory>
#include <vector>

#include "comm/message.hpp"
#include "comm/queue.hpp"

namespace coupon::comm {

/// A fixed-size set of endpoints with reliable in-order unicast delivery.
///
/// Thread safety: any thread may send to any rank; `recv`/`recv_for` for a
/// given rank should be called by that rank's owning thread (the usual MPI
/// discipline).
class InProcNetwork {
 public:
  /// Creates `num_ranks` endpoints (rank ids 0 .. num_ranks-1).
  explicit InProcNetwork(std::size_t num_ranks);

  std::size_t num_ranks() const { return mailboxes_.size(); }

  /// Routes `m` to `m.dest`. `m.source` must be a valid rank. Serializes
  /// and deserializes the message to exercise the wire path. Returns false
  /// if the destination mailbox is closed.
  bool send(Message m);

  /// Blocking receive with a distinguishable outcome: kItem with `out`
  /// assigned, or kClosed once the mailbox is closed and drained.
  PopStatus recv(std::size_t rank, Message& out);

  /// Deadline receive that keeps EOF distinct from timeout: kItem with
  /// `out` assigned, kTimeout when the deadline passed with the mailbox
  /// open, kClosed once closed and drained.
  PopStatus recv_for(std::size_t rank, std::chrono::milliseconds timeout,
                     Message& out);

  /// Closes one mailbox (wakes its blocked receiver).
  void close_rank(std::size_t rank);

  /// Closes all mailboxes.
  void close_all();

 private:
  std::vector<std::unique_ptr<BlockingQueue<Message>>> mailboxes_;
};

}  // namespace coupon::comm
