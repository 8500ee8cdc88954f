#include "comm/network.hpp"

#include "util/assert.hpp"

namespace coupon::comm {

InProcNetwork::InProcNetwork(std::size_t num_ranks) {
  COUPON_ASSERT(num_ranks > 0);
  mailboxes_.reserve(num_ranks);
  for (std::size_t i = 0; i < num_ranks; ++i) {
    mailboxes_.push_back(std::make_unique<BlockingQueue<Message>>());
  }
}

bool InProcNetwork::send(Message m) {
  COUPON_ASSERT_MSG(m.source >= 0 &&
                        static_cast<std::size_t>(m.source) < num_ranks(),
                    "bad source rank " << m.source);
  COUPON_ASSERT_MSG(m.dest >= 0 &&
                        static_cast<std::size_t>(m.dest) < num_ranks(),
                    "bad dest rank " << m.dest);

  // Round-trip through the wire format: catches any non-serializable state
  // early, as a socket transport would.
  const std::vector<std::uint8_t> wire = serialize(m);
  Message delivered;
  const bool ok = deserialize(wire, delivered);
  COUPON_ASSERT_MSG(ok, "message failed serialization round-trip");
  return mailboxes_[static_cast<std::size_t>(m.dest)]->push(
      std::move(delivered));
}

PopStatus InProcNetwork::recv(std::size_t rank, Message& out) {
  COUPON_ASSERT(rank < num_ranks());
  return mailboxes_[rank]->pop(out);
}

PopStatus InProcNetwork::recv_for(std::size_t rank,
                                  std::chrono::milliseconds timeout,
                                  Message& out) {
  COUPON_ASSERT(rank < num_ranks());
  return mailboxes_[rank]->pop_for(timeout, out);
}

void InProcNetwork::close_rank(std::size_t rank) {
  COUPON_ASSERT(rank < num_ranks());
  mailboxes_[rank]->close();
}

void InProcNetwork::close_all() {
  for (auto& mailbox : mailboxes_) {
    mailbox->close();
  }
}

}  // namespace coupon::comm
