#include "comm/transport.hpp"

#include "util/assert.hpp"

namespace coupon::comm {

InProcessTransport::InProcessTransport(InProcNetwork& network,
                                       std::size_t rank)
    : network_(network), rank_(rank) {
  COUPON_ASSERT(rank < network.num_ranks());
}

bool InProcessTransport::send(Message m) {
  m.source = static_cast<std::int32_t>(rank_);
  return network_.send(std::move(m));
}

RecvEvent InProcessTransport::recv() {
  RecvEvent event;
  if (network_.recv(rank_, event.message) != PopStatus::kItem) {
    event.status = RecvStatus::kClosed;
    return event;
  }
  event.status = RecvStatus::kMessage;
  event.peer = static_cast<std::size_t>(event.message.source);
  return event;
}

RecvEvent InProcessTransport::recv_for(std::chrono::milliseconds timeout) {
  RecvEvent event;
  switch (network_.recv_for(rank_, timeout, event.message)) {
    case PopStatus::kItem:
      event.status = RecvStatus::kMessage;
      event.peer = static_cast<std::size_t>(event.message.source);
      return event;
    case PopStatus::kTimeout:
      event.status = RecvStatus::kTimeout;
      return event;
    case PopStatus::kClosed:
      break;
  }
  event.status = RecvStatus::kClosed;
  return event;
}

void InProcessTransport::close() { network_.close_rank(rank_); }

}  // namespace coupon::comm
