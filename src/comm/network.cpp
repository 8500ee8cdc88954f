#include "comm/network.hpp"

#include "util/assert.hpp"

namespace coupon::comm {

InProcNetwork::InProcNetwork(std::size_t num_ranks) {
  COUPON_ASSERT(num_ranks > 0);
  mailboxes_.reserve(num_ranks);
  for (std::size_t i = 0; i < num_ranks; ++i) {
    mailboxes_.push_back(std::make_unique<Endpoint>());
  }
}

bool InProcNetwork::send(Message m) {
  COUPON_ASSERT_MSG(m.source >= 0 &&
                        static_cast<std::size_t>(m.source) < num_ranks(),
                    "bad source rank " << m.source);
  COUPON_ASSERT_MSG(m.dest >= 0 &&
                        static_cast<std::size_t>(m.dest) < num_ranks(),
                    "bad dest rank " << m.dest);
  Endpoint& src = *mailboxes_[static_cast<std::size_t>(m.source)];
  Endpoint& dst = *mailboxes_[static_cast<std::size_t>(m.dest)];

  // Round-trip through the wire format: catches any non-serializable state
  // early and keeps byte accounting faithful to a socket transport.
  const std::vector<std::uint8_t> wire = serialize(m);
  Message delivered;
  const bool ok = deserialize(wire, delivered);
  COUPON_ASSERT_MSG(ok, "message failed serialization round-trip");

  src.messages_sent.fetch_add(1, std::memory_order_relaxed);
  src.bytes_sent.fetch_add(wire.size(), std::memory_order_relaxed);
  src.payload_units_sent.fetch_add(delivered.payload.size(),
                                   std::memory_order_relaxed);
  if (!dst.mailbox.push(std::move(delivered))) {
    return false;
  }
  return true;
}

PopStatus InProcNetwork::recv(std::size_t rank, Message& out) {
  COUPON_ASSERT(rank < num_ranks());
  const PopStatus status = mailboxes_[rank]->mailbox.pop(out);
  if (status == PopStatus::kItem) {
    mailboxes_[rank]->messages_received.fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  return status;
}

PopStatus InProcNetwork::recv_for(std::size_t rank,
                                  std::chrono::milliseconds timeout,
                                  Message& out) {
  COUPON_ASSERT(rank < num_ranks());
  const PopStatus status = mailboxes_[rank]->mailbox.pop_for(timeout, out);
  if (status == PopStatus::kItem) {
    mailboxes_[rank]->messages_received.fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  return status;
}

void InProcNetwork::close_rank(std::size_t rank) {
  COUPON_ASSERT(rank < num_ranks());
  mailboxes_[rank]->mailbox.close();
}

void InProcNetwork::close_all() {
  for (auto& ep : mailboxes_) {
    ep->mailbox.close();
  }
}

TrafficStats InProcNetwork::stats(std::size_t rank) const {
  COUPON_ASSERT(rank < num_ranks());
  const Endpoint& ep = *mailboxes_[rank];
  TrafficStats s;
  s.messages_sent = ep.messages_sent.load(std::memory_order_relaxed);
  s.messages_received = ep.messages_received.load(std::memory_order_relaxed);
  s.bytes_sent = ep.bytes_sent.load(std::memory_order_relaxed);
  s.payload_units_sent =
      ep.payload_units_sent.load(std::memory_order_relaxed);
  return s;
}

}  // namespace coupon::comm
