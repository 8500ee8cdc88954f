#pragma once

/// \file transport.hpp
/// The endpoint-level transport seam (DESIGN.md §9).
///
/// A `Transport` is one participant's view of the fabric: it routes
/// outgoing messages by `Message::dest` and surfaces incoming traffic as
/// `RecvEvent`s whose status keeps the three ways a wait can end apart —
/// a message arrived, the deadline passed, or an endpoint went away. The
/// master-side iteration provider (runtime/transport_provider.hpp) is
/// written against this interface only, so the threaded runtime (an
/// `InProcessTransport` over the in-process fabric) and the multi-process
/// runtime (a `TcpTransport` over stream sockets) share one protocol
/// implementation; framing and connection management never leak upward.

#include <chrono>
#include <cstddef>

#include "comm/message.hpp"
#include "comm/network.hpp"

namespace coupon::comm {

/// What a `Transport::recv` wait produced.
enum class RecvStatus {
  kMessage,     ///< `message` holds a delivered message from `peer`
  kTimeout,     ///< the deadline passed; every peer is still connected
  kPeerClosed,  ///< `peer`'s connection reached EOF — a crash/leave signal
  kClosed,      ///< this endpoint is shut down; no further events
};

/// One receive outcome. `peer` is the rank the event concerns (the sender
/// for kMessage, the vanished rank for kPeerClosed; unspecified
/// otherwise).
struct RecvEvent {
  RecvStatus status = RecvStatus::kClosed;
  std::size_t peer = static_cast<std::size_t>(-1);
  Message message;
};

/// One endpoint of a rank-addressed message fabric.
///
/// Thread safety follows the MPI discipline of InProcNetwork: any thread
/// may send, but `recv`/`recv_for` belong to the endpoint's owning
/// thread.
class Transport {
 public:
  virtual ~Transport() = default;

  /// This endpoint's rank (0 = master).
  virtual std::size_t rank() const = 0;

  /// Total participants, master included.
  virtual std::size_t num_ranks() const = 0;

  /// Routes `m` to `m.dest`, stamping `m.source` with this endpoint's
  /// rank. Returns false when the destination is gone (closed mailbox,
  /// broken pipe) — the caller decides whether that is fatal.
  virtual bool send(Message m) = 0;

  /// Blocks until a message arrives or a terminal event occurs. Never
  /// returns kTimeout.
  virtual RecvEvent recv() = 0;

  /// Like recv() but gives up after `timeout`, returning kTimeout with
  /// every connection intact — distinct from kPeerClosed/kClosed, which
  /// are terminal for the peer / the endpoint respectively.
  virtual RecvEvent recv_for(std::chrono::milliseconds timeout) = 0;

  /// Shuts the endpoint down: subsequent receives return kClosed and
  /// peers observe EOF where the fabric supports it. Idempotent.
  virtual void close() = 0;
};

/// `Transport` endpoint over the in-process fabric backing the threaded
/// runtime. Peers are threads of one process, so peer death is not
/// observable: receives never return kPeerClosed, and a closed-and-
/// drained mailbox surfaces as kClosed.
class InProcessTransport final : public Transport {
 public:
  /// Binds to `rank`'s mailbox in `network`, which must outlive this
  /// endpoint.
  InProcessTransport(InProcNetwork& network, std::size_t rank);

  std::size_t rank() const override { return rank_; }
  std::size_t num_ranks() const override { return network_.num_ranks(); }
  bool send(Message m) override;
  RecvEvent recv() override;
  RecvEvent recv_for(std::chrono::milliseconds timeout) override;
  void close() override;

 private:
  InProcNetwork& network_;
  std::size_t rank_;
};

}  // namespace coupon::comm
