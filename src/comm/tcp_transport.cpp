#include "comm/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <span>

#include "util/assert.hpp"

namespace coupon::comm {

namespace {

/// Bytes of the length prefix in front of every frame body.
constexpr std::size_t kPrefixBytes = 8;

/// Frames above this are treated as stream corruption, not messages: the
/// largest legitimate payload (a model broadcast) is n_features doubles.
constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 31;

/// The least free space a stream buffer offers one read; buffers grow by
/// doubling past it.
constexpr std::size_t kMinReadBytes = 4096;

/// The body length a frame prefix announces; 0 when no valid frame can
/// start with it (zero, or above kMaxFrameBytes).
std::uint64_t frame_length(const std::uint8_t* prefix) {
  std::uint64_t length = 0;
  for (std::size_t i = 0; i < kPrefixBytes; ++i) {
    length |= static_cast<std::uint64_t>(prefix[i]) << (8 * i);
  }
  return length <= kMaxFrameBytes ? length : 0;
}

/// Lays `m` out as one frame in `wire`: the length prefix, then the body
/// serialized in place after it.
void encode_frame(const Message& m, std::vector<std::uint8_t>& wire) {
  const std::uint64_t length = m.wire_size();
  wire.resize(kPrefixBytes + length);
  for (std::size_t i = 0; i < kPrefixBytes; ++i) {
    wire[i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
  serialize(m, std::span<std::uint8_t>(wire).subspan(kPrefixBytes));
}

/// A wait's end point. A negative timeout, or one past the clock's range,
/// saturates to "no deadline" instead of overflowing into the past.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;
  using Ms = std::chrono::milliseconds;

  explicit Deadline(Ms timeout) {
    if (timeout.count() < 0) {
      return;
    }
    const Clock::time_point now = Clock::now();
    const auto room =
        std::chrono::duration_cast<Ms>(Clock::time_point::max() - now);
    if (timeout < room) {
      at_ = now + timeout;
    }
  }

  bool unlimited() const { return at_ == Clock::time_point::max(); }

  bool passed() const { return !unlimited() && Clock::now() >= at_; }

  /// poll()'s timeout: -1 without a deadline, else the milliseconds left,
  /// rounded up and capped at INT_MAX.
  int poll_ms() const {
    if (unlimited()) {
      return -1;
    }
    const Ms::rep left = std::chrono::ceil<Ms>(at_ - Clock::now()).count();
    return static_cast<int>(std::clamp<Ms::rep>(left, 0, INT_MAX));
  }

 private:
  Clock::time_point at_ = Clock::time_point::max();
};

/// Turns off Nagle on TCP streams; a no-op on AF_UNIX (where the option
/// does not exist) — each iteration is a small latency-bound exchange.
void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void close_fd(int fd) {
  if (fd >= 0) {
    ::close(fd);
  }
}

/// True when `make` creates a pair, which is closed again.
bool can_make(bool (*make)(int[2])) {
  int fds[2];
  if (!make(fds)) {
    return false;
  }
  close_fd(fds[0]);
  close_fd(fds[1]);
  return true;
}

/// A connected loopback TCP pair: an ephemeral-port listener, one
/// connect (on loopback it completes from the listen backlog, before any
/// accept) and the accept of that connection. The accepted peer must be
/// our own connect; one from another process that raced to the port
/// fails the pair.
bool make_tcp_pair(int fds[2]) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  int accepted = -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // port 0: the kernel picks
  auto* const sa = reinterpret_cast<sockaddr*>(&addr);
  socklen_t len = sizeof(addr);
  if (listener >= 0 && client >= 0 && ::bind(listener, sa, len) == 0 &&
      ::listen(listener, 1) == 0 && ::getsockname(listener, sa, &len) == 0 &&
      ::connect(client, sa, len) == 0) {
    do {
      accepted = ::accept(listener, nullptr, nullptr);
    } while (accepted < 0 && errno == EINTR);
  }
  close_fd(listener);
  sockaddr_in ours;
  sockaddr_in theirs;
  socklen_t ours_len = sizeof(ours);
  socklen_t theirs_len = sizeof(theirs);
  if (accepted < 0 ||
      ::getsockname(client, reinterpret_cast<sockaddr*>(&ours), &ours_len) !=
          0 ||
      ::getpeername(accepted, reinterpret_cast<sockaddr*>(&theirs),
                    &theirs_len) != 0 ||
      ours.sin_port != theirs.sin_port) {
    close_fd(client);
    close_fd(accepted);
    return false;
  }
  fds[0] = accepted;
  fds[1] = client;
  return true;
}

enum class Cut {
  kFrame,    ///< a whole frame was parsed into `out` and consumed
  kPartial,  ///< the next frame has not fully arrived
  kCorrupt,  ///< a bad length or a body `deserialize` rejects
};

/// Cuts the next whole frame out of `buf[begin, end)`, parsing the body
/// where it lies.
Cut cut_frame(const std::vector<std::uint8_t>& buf, std::size_t& begin,
              std::size_t end, Message& out) {
  const std::size_t have = end - begin;
  if (have < kPrefixBytes) {
    return Cut::kPartial;
  }
  const std::uint64_t length = frame_length(buf.data() + begin);
  if (length == 0) {
    return Cut::kCorrupt;
  }
  if (have - kPrefixBytes < length) {
    return Cut::kPartial;
  }
  if (!deserialize({buf.data() + begin + kPrefixBytes, length}, out)) {
    return Cut::kCorrupt;
  }
  begin += kPrefixBytes + length;
  return Cut::kFrame;
}

}  // namespace

bool make_stream_socketpair(int fds[2]) {
  return ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0;
}

bool socketpair_available() {
  static const bool available = can_make(make_stream_socketpair);
  return available;
}

bool tcp_loopback_available() {
  static const bool available = can_make(make_tcp_pair);
  return available;
}

bool make_stream_pair(int fds[2]) {
  return tcp_loopback_available() ? make_tcp_pair(fds)
                                  : make_stream_socketpair(fds);
}

TcpTransport::TcpTransport(std::size_t rank, std::size_t num_ranks,
                           std::vector<int> fds)
    : rank_(rank), num_ranks_(num_ranks), poll_set_(fds.size()) {
  streams_.reserve(fds.size());
  for (int fd : fds) {
    COUPON_ASSERT(fd >= 0);
    set_nodelay(fd);
    streams_.emplace_back().fd = fd;
  }
}

std::unique_ptr<TcpTransport> TcpTransport::master(
    std::vector<int> worker_fds) {
  COUPON_ASSERT(!worker_fds.empty());
  const std::size_t num_ranks = worker_fds.size() + 1;
  return std::unique_ptr<TcpTransport>(
      new TcpTransport(/*rank=*/0, num_ranks, std::move(worker_fds)));
}

std::unique_ptr<TcpTransport> TcpTransport::worker(int fd, std::size_t rank,
                                                   std::size_t num_ranks) {
  COUPON_ASSERT(rank >= 1 && rank < num_ranks);
  return std::unique_ptr<TcpTransport>(
      new TcpTransport(rank, num_ranks, std::vector<int>{fd}));
}

TcpTransport::~TcpTransport() { close(); }

void TcpTransport::Stream::read_some(int flags) {
  if (buf.size() - end < kMinReadBytes) {
    if (begin > 0) {
      std::memmove(buf.data(), buf.data() + begin, end - begin);
      end -= begin;
      begin = 0;
    }
    if (buf.size() - end < kMinReadBytes) {
      buf.resize(std::max(2 * buf.size(), end + kMinReadBytes));
    }
  }
  for (;;) {
    const ssize_t got = ::recv(fd, buf.data() + end, buf.size() - end, flags);
    if (got > 0) {
      end += static_cast<std::size_t>(got);
      return;
    }
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      eof = true;
    }
    return;
  }
}

bool TcpTransport::next_event(RecvEvent& event) {
  const std::size_t n = streams_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (next_stream_ + k) % n;
    Stream& s = streams_[i];
    if (s.reported) {
      continue;
    }
    const Cut cut = cut_frame(s.buf, s.begin, s.end, event.message);
    if (cut == Cut::kPartial && !s.eof) {
      continue;
    }
    next_stream_ = (i + 1) % n;
    event.peer = rank_ == 0 ? i + 1 : 0;
    if (cut == Cut::kFrame) {
      if (s.begin == s.end) {
        s.begin = s.end = 0;
      }
      event.status = RecvStatus::kMessage;
      return true;
    }
    // The stream is over — EOF after its last whole frame, or a frame
    // that leaves its offset untrustworthy. A truncated tail is dropped.
    s.eof = true;
    s.buf = {};
    s.begin = s.end = 0;
    if (rank_ == 0) {
      s.reported = true;  // exactly one crash/leave signal per worker
      event.status = RecvStatus::kPeerClosed;
    } else {
      event.status = RecvStatus::kClosed;  // the master is gone for good
    }
    return true;
  }
  return false;
}

int TcpTransport::poll_and_read(int timeout_ms, const Stream* writer) {
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const Stream& s = streams_[i];
    const bool writes = &s == writer;
    pollfd& p = poll_set_[i];
    p.fd = s.eof && !writes ? -1 : s.fd;  // poll() skips negative fds
    p.events = static_cast<short>((s.eof ? 0 : POLLIN) |
                                  (writes ? POLLOUT : 0));
    p.revents = 0;
  }
  const int rc = ::poll(poll_set_.data(), poll_set_.size(), timeout_ms);
  for (std::size_t i = 0; rc > 0 && i < streams_.size(); ++i) {
    if (!streams_[i].eof &&
        (poll_set_[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      streams_[i].read_some(MSG_DONTWAIT);
    }
  }
  return rc;
}

const TcpTransport::Stream& TcpTransport::stream_for(std::size_t dest) const {
  if (rank_ == 0) {
    COUPON_ASSERT_MSG(dest >= 1 && dest < num_ranks_,
                      "master send to bad rank " << dest);
    return streams_[dest - 1];
  }
  COUPON_ASSERT_MSG(dest == 0, "workers may only send to the master");
  return streams_[0];
}

bool TcpTransport::write_frame(const Stream& dest) {
  const std::uint8_t* data = wire_.data();
  std::size_t left = wire_.size();
  while (left > 0) {
    const ssize_t wrote =
        ::send(dest.fd, data, left, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (wrote >= 0) {
      data += wrote;
      left -= static_cast<std::size_t>(wrote);
      continue;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return false;  // EPIPE/ECONNRESET: the peer is gone
    }
    // The socket is full. Wait for space while reading every stream, so
    // a peer blocked writing to us drains and can read what we send.
    if (poll_and_read(-1, &dest) < 0 && errno != EINTR) {
      return false;
    }
  }
  return true;
}

bool TcpTransport::send(Message m) {
  if (closed_) {
    return false;
  }
  m.source = static_cast<std::int32_t>(rank_);
  const Stream& dest = stream_for(static_cast<std::size_t>(m.dest));
  encode_frame(m, wire_);
  return write_frame(dest);
}

RecvEvent TcpTransport::recv() {
  return recv_for(std::chrono::milliseconds(-1));
}

RecvEvent TcpTransport::recv_for(std::chrono::milliseconds timeout) {
  RecvEvent event;
  if (closed_) {
    event.status = RecvStatus::kClosed;
    return event;
  }
  const Deadline deadline(timeout);
  for (;;) {
    if (next_event(event)) {
      return event;
    }
    if (deadline.unlimited() && streams_.size() == 1 && !streams_[0].eof) {
      streams_[0].read_some(/*flags=*/0);  // one blocking recv per wait
      continue;
    }
    const int rc = poll_and_read(deadline.poll_ms(), /*writer=*/nullptr);
    if (rc == 0 && deadline.passed()) {
      event.status = RecvStatus::kTimeout;
      return event;
    }
    if (rc < 0 && errno != EINTR) {
      event.status = RecvStatus::kClosed;  // this endpoint cannot wait
      return event;
    }
  }
}

void TcpTransport::close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  for (Stream& s : streams_) {
    ::shutdown(s.fd, SHUT_RDWR);  // peers see EOF even if a dup survives
    close_fd(s.fd);
    s = Stream{};
  }
}

}  // namespace coupon::comm
