// Tests for the message-passing substrate: serialization, the blocking
// queue, the in-process network, and the framed stream transport.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "comm/comm.hpp"
#include "runtime/transport_provider.hpp"
#include "stats/rng.hpp"
#include "util/assert.hpp"

namespace coupon::comm {
namespace {

Message sample_message() {
  Message m;
  m.source = 3;
  m.dest = 0;
  m.tag = kTagGradient;
  m.iteration = 17;
  m.meta = {4, -2, 1000000007};
  m.payload = {1.5, -2.25, 0.0, 1e-300, 1e300};
  return m;
}

// --- serialization -----------------------------------------------------------

TEST(Serialization, RoundTripPreservesEverything) {
  const Message m = sample_message();
  Message out;
  ASSERT_TRUE(deserialize(serialize(m), out));
  EXPECT_EQ(out, m);
}

TEST(Serialization, EmptyArraysRoundTrip) {
  Message m;
  m.source = 0;
  m.dest = 1;
  m.tag = kTagShutdown;
  Message out;
  ASSERT_TRUE(deserialize(serialize(m), out));
  EXPECT_EQ(out, m);
}

TEST(Serialization, WireSizeMatchesBufferSize) {
  const Message m = sample_message();
  EXPECT_EQ(serialize(m).size(), m.wire_size());
}

TEST(Serialization, RandomMessagesFuzzRoundTrip) {
  stats::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    Message m;
    m.source = static_cast<std::int32_t>(rng.uniform_int(100));
    m.dest = static_cast<std::int32_t>(rng.uniform_int(100));
    m.tag = static_cast<std::int32_t>(rng.uniform_int(10));
    m.iteration = static_cast<std::int64_t>(rng.uniform_int(1000));
    m.meta.resize(rng.uniform_int(20));
    for (auto& v : m.meta) {
      v = static_cast<std::int64_t>(rng.next_u64());
    }
    m.payload.resize(rng.uniform_int(50));
    for (auto& v : m.payload) {
      v = rng.normal();
    }
    Message out;
    ASSERT_TRUE(deserialize(serialize(m), out));
    EXPECT_EQ(out, m);
  }
}

TEST(Serialization, RejectsTruncationAtEveryLength) {
  const auto bytes = serialize(sample_message());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    Message out;
    EXPECT_FALSE(deserialize(cut, out)) << "accepted truncation at " << len;
  }
}

TEST(Serialization, RejectsBadMagic) {
  auto bytes = serialize(sample_message());
  bytes[0] ^= 0xFF;
  Message out;
  EXPECT_FALSE(deserialize(bytes, out));
}

TEST(Serialization, RejectsTrailingGarbage) {
  auto bytes = serialize(sample_message());
  bytes.push_back(0);
  Message out;
  EXPECT_FALSE(deserialize(bytes, out));
}

TEST(Serialization, FailedParseLeavesOutputUntouched) {
  Message out = sample_message();
  const Message before = out;
  Message bogus;
  bogus.meta = {1, 2, 3};
  auto bytes = serialize(bogus);
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(deserialize(bytes, out));
  EXPECT_EQ(out, before);
}

TEST(Serialization, RejectsArrayLengthThatWrapsWhenMultiplied) {
  // A 48-byte body: the 40-byte header, one meta slot, no payload. A
  // meta_len of 2^61 + 1 times 8 wraps to 8, the bytes actually present.
  Message m;
  m.meta = {7};
  auto bytes = serialize(m);
  ASSERT_EQ(bytes.size(), 48u);
  const std::uint64_t crafted = (std::uint64_t{1} << 61) + 1;
  std::memcpy(bytes.data() + 24, &crafted, sizeof(crafted));
  Message out;
  EXPECT_FALSE(deserialize(bytes, out));
}

// --- blocking queue ----------------------------------------------------------

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  for (int expected = 1; expected <= 3; ++expected) {
    int out = 0;
    ASSERT_EQ(q.pop(out), PopStatus::kItem);
    EXPECT_EQ(out, expected);
  }
}

TEST(BlockingQueue, PopForTimesOut) {
  BlockingQueue<int> q;
  int out = 0;
  EXPECT_EQ(q.pop_for(std::chrono::milliseconds(10), out), PopStatus::kTimeout);
}

TEST(BlockingQueue, CloseRejectsPushAndDrains) {
  BlockingQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));
  int out = 0;
  ASSERT_EQ(q.pop(out), PopStatus::kItem);  // drains existing items
  EXPECT_EQ(out, 7);
  EXPECT_EQ(q.pop(out), PopStatus::kClosed);
  EXPECT_TRUE(q.closed());
}

TEST(BlockingQueue, CloseWakesBlockedConsumer) {
  BlockingQueue<int> q;
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    int out = 0;
    EXPECT_EQ(q.pop(out), PopStatus::kClosed);
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  EXPECT_TRUE(woke.load());
}

TEST(BlockingQueue, ConcurrentProducersConsumersConserveItems) {
  BlockingQueue<int> q;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  std::atomic<long> sum{0};
  std::atomic<int> received{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      int v = 0;
      while (q.pop(v) == PopStatus::kItem) {
        sum += v;
        ++received;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push(p * kPerProducer + i);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  // Wait for drain, then close to release consumers.
  while (q.size() > 0) {
    std::this_thread::yield();
  }
  q.close();
  for (auto& t : consumers) {
    t.join();
  }
  const long n = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// --- network -----------------------------------------------------------------

TEST(InProcNetwork, DeliversToDestination) {
  InProcNetwork net(3);
  Message m = sample_message();
  m.source = 1;
  m.dest = 2;
  ASSERT_TRUE(net.send(m));
  Message got;
  ASSERT_EQ(net.recv(2, got), PopStatus::kItem);
  EXPECT_EQ(got, m);
}

TEST(InProcNetwork, InOrderDeliveryPerSender) {
  InProcNetwork net(2);
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.source = 0;
    m.dest = 1;
    m.iteration = i;
    net.send(std::move(m));
  }
  for (int i = 0; i < 10; ++i) {
    Message got;
    ASSERT_EQ(net.recv(1, got), PopStatus::kItem);
    EXPECT_EQ(got.iteration, i);
  }
}

TEST(InProcNetwork, RecvForTimesOut) {
  InProcNetwork net(1);
  Message out;
  EXPECT_EQ(net.recv_for(0, std::chrono::milliseconds(10), out),
            PopStatus::kTimeout);
}

TEST(InProcNetwork, BadRankAsserts) {
  InProcNetwork net(2);
  Message m;
  m.source = 0;
  m.dest = 5;
  EXPECT_THROW(net.send(std::move(m)), coupon::AssertionError);
  Message m2;
  m2.source = -1;
  m2.dest = 0;
  EXPECT_THROW(net.send(std::move(m2)), coupon::AssertionError);
}

TEST(InProcNetwork, SendToClosedRankReturnsFalse) {
  InProcNetwork net(2);
  net.close_rank(1);
  Message m;
  m.source = 0;
  m.dest = 1;
  EXPECT_FALSE(net.send(std::move(m)));
}

// --- status pops (EOF distinct from timeout) ---------------------------------

TEST(BlockingQueue, StatusPopDistinguishesItemTimeoutClosed) {
  BlockingQueue<int> q;
  q.push(5);
  int out = 0;
  EXPECT_EQ(q.pop(out), PopStatus::kItem);
  EXPECT_EQ(out, 5);
  EXPECT_EQ(q.pop_for(std::chrono::milliseconds(10), out), PopStatus::kTimeout);
  q.push(6);
  q.close();
  EXPECT_EQ(q.pop(out), PopStatus::kItem);  // drains before reporting closed
  EXPECT_EQ(out, 6);
  EXPECT_EQ(q.pop(out), PopStatus::kClosed);
  EXPECT_EQ(q.pop_for(std::chrono::milliseconds(10), out), PopStatus::kClosed);
}

TEST(InProcNetwork, StatusRecvDistinguishesTimeoutFromClosed) {
  InProcNetwork net(2);
  Message out;
  EXPECT_EQ(net.recv_for(1, std::chrono::milliseconds(10), out),
            PopStatus::kTimeout);
  Message m = sample_message();
  m.source = 0;
  m.dest = 1;
  net.send(m);
  EXPECT_EQ(net.recv(1, out), PopStatus::kItem);
  EXPECT_EQ(out, m);
  net.close_rank(1);
  EXPECT_EQ(net.recv(1, out), PopStatus::kClosed);
  EXPECT_EQ(net.recv_for(1, std::chrono::milliseconds(10), out),
            PopStatus::kClosed);
}

// --- Transport seam ----------------------------------------------------------

TEST(InProcessTransport, RoundTripBothDirections) {
  InProcNetwork net(2);
  InProcessTransport master(net, 0);
  InProcessTransport worker(net, 1);
  EXPECT_EQ(master.rank(), 0u);
  EXPECT_EQ(master.num_ranks(), 2u);

  Message m = sample_message();
  m.dest = 1;
  ASSERT_TRUE(master.send(std::move(m)));
  RecvEvent at_worker = worker.recv();
  ASSERT_EQ(at_worker.status, RecvStatus::kMessage);
  EXPECT_EQ(at_worker.peer, 0u);  // send stamps the sender's rank
  EXPECT_EQ(at_worker.message.source, 0);

  Message reply = sample_message();
  reply.dest = 0;
  ASSERT_TRUE(worker.send(std::move(reply)));
  RecvEvent at_master = master.recv_for(std::chrono::milliseconds(1000));
  ASSERT_EQ(at_master.status, RecvStatus::kMessage);
  EXPECT_EQ(at_master.peer, 1u);
}

TEST(InProcessTransport, TimeoutAndCloseStatuses) {
  InProcNetwork net(2);
  InProcessTransport master(net, 0);
  EXPECT_EQ(master.recv_for(std::chrono::milliseconds(10)).status,
            RecvStatus::kTimeout);
  master.close();
  EXPECT_EQ(master.recv().status, RecvStatus::kClosed);
}

// --- framed stream transport -------------------------------------------------

TEST(TcpTransport, FramingRoundTripOverSocketpair) {
  if (!socketpair_available()) {
    GTEST_SKIP() << "no AF_UNIX socketpair in this sandbox";
  }
  int fds[2];
  ASSERT_TRUE(make_stream_socketpair(fds));
  auto master = TcpTransport::master({fds[0]});
  auto worker = TcpTransport::worker(fds[1], 1, 2);
  Message m = sample_message();
  m.source = 0;  // what send stamps
  m.dest = 1;
  ASSERT_TRUE(master->send(m));
  RecvEvent event = worker->recv_for(std::chrono::milliseconds(1000));
  ASSERT_EQ(event.status, RecvStatus::kMessage);
  EXPECT_EQ(event.message, m);
  // Timeout with no bytes pending, then EOF when the peer closes.
  EXPECT_EQ(worker->recv_for(std::chrono::milliseconds(10)).status,
            RecvStatus::kTimeout);
  master->close();
  EXPECT_EQ(worker->recv_for(std::chrono::milliseconds(1000)).status,
            RecvStatus::kClosed);
}

TEST(TcpTransport, FramingFuzzSizesOverSocketpair) {
  if (!socketpair_available()) {
    GTEST_SKIP() << "no AF_UNIX socketpair in this sandbox";
  }
  int fds[2];
  ASSERT_TRUE(make_stream_socketpair(fds));
  auto master = TcpTransport::master({fds[0]});
  auto worker = TcpTransport::worker(fds[1], 1, 2);
  std::thread sender([&] {
    stats::Rng sender_rng(7);
    for (int trial = 0; trial < 50; ++trial) {
      Message m;
      m.dest = 1;
      m.tag = kTagGradient;
      m.iteration = trial;
      m.meta.resize(sender_rng.uniform_int(64));
      for (auto& v : m.meta) {
        v = static_cast<std::int64_t>(sender_rng.next_u64());
      }
      m.payload.resize(sender_rng.uniform_int(4096));
      for (auto& v : m.payload) {
        v = sender_rng.normal();
      }
      ASSERT_TRUE(master->send(std::move(m)));
    }
    master->close();
  });
  for (int trial = 0; trial < 50; ++trial) {
    const RecvEvent event = worker->recv_for(std::chrono::milliseconds(5000));
    ASSERT_EQ(event.status, RecvStatus::kMessage);
    EXPECT_EQ(event.message.iteration, trial);
  }
  EXPECT_EQ(worker->recv_for(std::chrono::milliseconds(5000)).status,
            RecvStatus::kClosed);
  sender.join();
}

TEST(TcpTransport, MasterWorkerRoundTripAndPeerClosed) {
  if (!socketpair_available()) {
    GTEST_SKIP() << "no AF_UNIX socketpair in this sandbox";
  }
  int a[2];
  int b[2];
  ASSERT_TRUE(make_stream_socketpair(a));
  ASSERT_TRUE(make_stream_socketpair(b));
  auto master = TcpTransport::master({a[0], b[0]});
  auto worker1 = TcpTransport::worker(a[1], 1, 3);
  auto worker2 = TcpTransport::worker(b[1], 2, 3);
  EXPECT_EQ(master->num_ranks(), 3u);

  Message m = sample_message();
  m.dest = 2;
  ASSERT_TRUE(master->send(std::move(m)));
  RecvEvent at_worker = worker2->recv();
  ASSERT_EQ(at_worker.status, RecvStatus::kMessage);
  EXPECT_EQ(at_worker.message.source, 0);

  Message reply = sample_message();
  reply.dest = 0;
  ASSERT_TRUE(worker1->send(std::move(reply)));
  RecvEvent at_master = master->recv_for(std::chrono::milliseconds(5000));
  ASSERT_EQ(at_master.status, RecvStatus::kMessage);
  EXPECT_EQ(at_master.peer, 1u);
  EXPECT_EQ(at_master.message.source, 1);

  EXPECT_EQ(master->recv_for(std::chrono::milliseconds(10)).status,
            RecvStatus::kTimeout);

  // Worker 2 goes away: the master sees exactly one kPeerClosed for it.
  worker2->close();
  RecvEvent eof = master->recv_for(std::chrono::milliseconds(5000));
  ASSERT_EQ(eof.status, RecvStatus::kPeerClosed);
  EXPECT_EQ(eof.peer, 2u);

  // Master closes: the remaining worker observes kClosed.
  master->close();
  EXPECT_EQ(worker1->recv().status, RecvStatus::kClosed);
  EXPECT_EQ(master->recv().status, RecvStatus::kClosed);
}

TEST(TcpTransport, LoopbackStreamPairRoundTrip) {
  if (!tcp_loopback_available() && !socketpair_available()) {
    GTEST_SKIP() << "no stream sockets in this sandbox";
  }
  int fds[2];
  ASSERT_TRUE(make_stream_pair(fds));
  // Loopback TCP is preferred wherever it works.
  sockaddr_storage addr;
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fds[1], reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  EXPECT_EQ(addr.ss_family, tcp_loopback_available() ? AF_INET : AF_UNIX);
  auto master = TcpTransport::master({fds[0]});
  std::thread client([fd = fds[1]] {
    auto worker = TcpTransport::worker(fd, 1, 2);
    RecvEvent event = worker->recv();
    ASSERT_EQ(event.status, RecvStatus::kMessage);
    Message reply = event.message;
    reply.dest = 0;
    ASSERT_TRUE(worker->send(std::move(reply)));
  });
  Message m = sample_message();
  m.dest = 1;
  ASSERT_TRUE(master->send(std::move(m)));
  RecvEvent echoed = master->recv_for(std::chrono::milliseconds(5000));
  ASSERT_EQ(echoed.status, RecvStatus::kMessage);
  EXPECT_EQ(echoed.peer, 1u);
  client.join();
}

// --- stream failure matrix ---------------------------------------------------

/// Wire bytes of a frame whose prefix announces `length`, then `body`.
std::vector<std::uint8_t> frame_bytes(std::uint64_t length,
                                      const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> wire(8 + body.size());
  for (std::size_t i = 0; i < 8; ++i) {
    wire[i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
  std::copy(body.begin(), body.end(), wire.begin() + 8);
  return wire;
}

std::vector<std::uint8_t> frame_bytes(const Message& m) {
  const std::vector<std::uint8_t> body = serialize(m);
  return frame_bytes(body.size(), body);
}

Message numbered_message(std::int64_t iteration) {
  Message m = sample_message();
  m.iteration = iteration;
  return m;
}

/// A master endpoint over socketpairs whose far ends stay raw fds, so a
/// test can write hand-made bytes as a worker would.
class TcpTransportPeers : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!socketpair_available()) {
      GTEST_SKIP() << "no AF_UNIX socketpair in this sandbox";
    }
  }

  void TearDown() override { disconnect(); }

  void disconnect() {
    master_.reset();
    for (int fd : peers_) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
    peers_.clear();
  }

  /// Connects a fresh master to `n` peers; peer i is worker rank i+1.
  void wire(std::size_t n) {
    disconnect();
    std::vector<int> master_fds;
    for (std::size_t i = 0; i < n; ++i) {
      int fds[2];
      ASSERT_TRUE(make_stream_socketpair(fds));
      master_fds.push_back(fds[0]);
      peers_.push_back(fds[1]);
    }
    master_ = TcpTransport::master(std::move(master_fds));
  }

  void write_bytes(std::size_t peer, std::span<const std::uint8_t> bytes) {
    ASSERT_EQ(::write(peers_[peer], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }

  void close_peer(std::size_t peer) {
    ::close(peers_[peer]);
    peers_[peer] = -1;
  }

  std::unique_ptr<TcpTransport> master_;
  std::vector<int> peers_;
};

TEST_F(TcpTransportPeers, TwoFramesInOneWriteArriveInOrder) {
  wire(1);
  std::vector<std::uint8_t> bytes = frame_bytes(numbered_message(1));
  const std::vector<std::uint8_t> second = frame_bytes(numbered_message(2));
  bytes.insert(bytes.end(), second.begin(), second.end());
  write_bytes(0, bytes);
  const RecvEvent first = master_->recv_for(std::chrono::milliseconds(5000));
  const RecvEvent next = master_->recv_for(std::chrono::milliseconds(5000));
  ASSERT_EQ(first.status, RecvStatus::kMessage);
  ASSERT_EQ(next.status, RecvStatus::kMessage);
  EXPECT_EQ(first.peer, 1u);
  EXPECT_EQ(first.message.iteration, 1);
  EXPECT_EQ(next.message.iteration, 2);
}

TEST_F(TcpTransportPeers, FrameWrittenOneByteAtATimeArrivesOnce) {
  wire(1);
  const std::vector<std::uint8_t> bytes = frame_bytes(sample_message());
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    write_bytes(0, std::span(bytes).subspan(i, 1));
    const RecvEvent event = master_->recv_for(std::chrono::milliseconds(0));
    if (event.status == RecvStatus::kMessage) {
      ++delivered;
      EXPECT_EQ(i + 1, bytes.size()) << "delivered before its last byte";
      EXPECT_EQ(event.message, sample_message());
    } else {
      EXPECT_EQ(event.status, RecvStatus::kTimeout);
    }
  }
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(master_->recv_for(std::chrono::milliseconds(10)).status,
            RecvStatus::kTimeout);
}

TEST_F(TcpTransportPeers, TruncatedFrameThenCloseGivesOnePeerClosed) {
  wire(1);
  std::vector<std::uint8_t> bytes = frame_bytes(numbered_message(1));
  const std::vector<std::uint8_t> whole = frame_bytes(numbered_message(2));
  const std::vector<std::uint8_t> cut = frame_bytes(numbered_message(3));
  bytes.insert(bytes.end(), whole.begin(), whole.end());
  bytes.insert(bytes.end(), cut.begin(), cut.begin() + cut.size() / 2);
  write_bytes(0, bytes);
  close_peer(0);
  const auto wait = std::chrono::milliseconds(5000);
  const RecvEvent a = master_->recv_for(wait);
  const RecvEvent b = master_->recv_for(wait);
  const RecvEvent eof = master_->recv_for(wait);
  ASSERT_EQ(a.status, RecvStatus::kMessage);
  ASSERT_EQ(b.status, RecvStatus::kMessage);
  EXPECT_EQ(a.message.iteration, 1);
  EXPECT_EQ(b.message.iteration, 2);
  EXPECT_EQ(eof.status, RecvStatus::kPeerClosed);
  EXPECT_EQ(eof.peer, 1u);
  EXPECT_EQ(master_->recv_for(std::chrono::milliseconds(10)).status,
            RecvStatus::kTimeout);
}

TEST_F(TcpTransportPeers, HostileFrameHeadersCloseThePeer) {
  const std::vector<std::uint8_t> body = serialize(sample_message());
  std::vector<std::uint8_t> bad_magic = frame_bytes(body.size(), body);
  bad_magic[8] ^= 0xFF;  // first byte of the body's magic
  const std::uint64_t too_long = (std::uint64_t{1} << 31) + 1;
  const std::map<std::string, std::vector<std::uint8_t>> cases = {
      {"zero length", frame_bytes(0, body)},
      {"length above 2^31", frame_bytes(too_long, body)},
      {"bad magic", bad_magic},
  };
  for (const auto& [name, bytes] : cases) {
    SCOPED_TRACE(name);
    wire(1);
    write_bytes(0, bytes);
    EXPECT_EQ(master_->recv_for(std::chrono::milliseconds(5000)).status,
              RecvStatus::kPeerClosed);
  }
}

TEST_F(TcpTransportPeers, PeerStalledMidFrameHoldsBackNoOne) {
  wire(2);
  const std::vector<std::uint8_t> bytes = frame_bytes(sample_message());
  write_bytes(0, std::span(bytes).first(bytes.size() / 2));
  write_bytes(1, bytes);
  const RecvEvent event = master_->recv_for(std::chrono::milliseconds(5000));
  ASSERT_EQ(event.status, RecvStatus::kMessage);
  EXPECT_EQ(event.peer, 2u);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(master_->recv_for(std::chrono::milliseconds(100)).status,
            RecvStatus::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
}

// --- the master's arrival loop over hand-written worker frames ----------------

/// `iteration`'s gradient reply as a worker claiming rank `source` would
/// write it; `value` tells the replies apart.
std::vector<std::uint8_t> reply_frame(std::int32_t source,
                                      std::int64_t iteration, double value,
                                      std::int32_t tag = kTagGradient) {
  Message m;
  m.source = source;
  m.dest = 0;
  m.tag = tag;
  m.iteration = iteration;
  m.payload = {value};
  return frame_bytes(m);
}

/// Drains the current iteration's arrivals: worker index -> the payload
/// it carried.
std::map<std::size_t, double> drain(runtime::TransportProvider& provider) {
  std::map<std::size_t, double> arrivals;
  engine::ArrivalView arrival;
  while (provider.next_arrival(arrival)) {
    EXPECT_EQ(arrival.payload.size(), 1u);
    arrivals[arrival.worker] = arrival.payload[0];
  }
  return arrivals;
}

/// A provider over the fixture's master that has broadcast `iteration`.
std::unique_ptr<runtime::TransportProvider> provider_at_iteration(
    Transport& master, std::size_t workers, std::size_t iteration = 0) {
  runtime::TransportProvider::Options options;
  options.worker_timeout = std::chrono::milliseconds(5000);
  auto provider = std::make_unique<runtime::TransportProvider>(
      master, workers, options);
  const std::vector<double> w = {0.5};
  provider->begin_iteration(iteration, w);
  return provider;
}

TEST_F(TcpTransportPeers, ForeignTagEndsOnlyItsSender) {
  wire(2);
  auto provider = provider_at_iteration(*master_, 2);
  write_bytes(0, reply_frame(1, 0, 10.0, kTagShutdown));
  write_bytes(1, reply_frame(2, 0, 20.0));
  const std::map<std::size_t, double> expected = {{1, 20.0}};
  EXPECT_EQ(drain(*provider), expected);
  EXPECT_FALSE(provider->worker_alive(0));
  EXPECT_TRUE(provider->worker_alive(1));
  EXPECT_EQ(provider->workers_lost(), 1u);
  EXPECT_EQ(provider->timed_out_iterations(), 0u);
}

TEST_F(TcpTransportPeers, SourceZeroEndsOnlyItsSender) {
  wire(2);
  auto provider = provider_at_iteration(*master_, 2);
  write_bytes(0, reply_frame(0, 0, 10.0));
  write_bytes(1, reply_frame(2, 0, 20.0));
  const std::map<std::size_t, double> expected = {{1, 20.0}};
  EXPECT_EQ(drain(*provider), expected);
  EXPECT_FALSE(provider->worker_alive(0));
  EXPECT_EQ(provider->workers_lost(), 1u);
  EXPECT_EQ(provider->timed_out_iterations(), 0u);
}

TEST_F(TcpTransportPeers, ImpersonatedSourceCannotTakeAnotherWorkersSlot) {
  wire(3);
  auto provider = provider_at_iteration(*master_, 3);
  // Worker rank 1 claims rank 3, then sends its own reply, which must be
  // dropped too: the first frame ended it.
  std::vector<std::uint8_t> bytes = reply_frame(3, 0, 10.0);
  const std::vector<std::uint8_t> own = reply_frame(1, 0, 11.0);
  bytes.insert(bytes.end(), own.begin(), own.end());
  write_bytes(0, bytes);
  write_bytes(1, reply_frame(2, 0, 20.0));
  write_bytes(2, reply_frame(3, 0, 30.0));
  const std::map<std::size_t, double> expected = {{1, 20.0}, {2, 30.0}};
  EXPECT_EQ(drain(*provider), expected);
  EXPECT_FALSE(provider->worker_alive(0));
  EXPECT_TRUE(provider->worker_alive(2));
  EXPECT_EQ(provider->workers_lost(), 1u);
  EXPECT_EQ(provider->timed_out_iterations(), 0u);
}

TEST_F(TcpTransportPeers, StaleReplyIsDroppedAndKeepsItsSender) {
  wire(1);
  auto provider = provider_at_iteration(*master_, 1, /*iteration=*/1);
  std::vector<std::uint8_t> bytes = reply_frame(1, 0, 10.0);
  const std::vector<std::uint8_t> current = reply_frame(1, 1, 11.0);
  bytes.insert(bytes.end(), current.begin(), current.end());
  write_bytes(0, bytes);
  const std::map<std::size_t, double> expected = {{0, 11.0}};
  EXPECT_EQ(drain(*provider), expected);
  EXPECT_TRUE(provider->worker_alive(0));
  EXPECT_EQ(provider->workers_lost(), 0u);
  EXPECT_EQ(provider->timed_out_iterations(), 0u);
}

TEST(TcpTransport, RecvForSaturatesAHugeTimeout) {
  if (!socketpair_available()) {
    GTEST_SKIP() << "no AF_UNIX socketpair in this sandbox";
  }
  // Two workers, so the master waits in poll() rather than in one
  // blocking recv; a year of milliseconds also exceeds poll()'s int.
  int a[2];
  int b[2];
  ASSERT_TRUE(make_stream_socketpair(a));
  ASSERT_TRUE(make_stream_socketpair(b));
  auto master = TcpTransport::master({a[0], b[0]});
  auto worker = TcpTransport::worker(a[1], 1, 3);
  auto idle = TcpTransport::worker(b[1], 2, 3);
  const std::chrono::milliseconds year = std::chrono::hours(24 * 365);
  for (const auto timeout : {std::chrono::milliseconds::max(), year}) {
    std::thread late([&worker] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Message m = sample_message();
      m.dest = 0;
      worker->send(std::move(m));
    });
    const RecvEvent event = master->recv_for(timeout);
    late.join();
    EXPECT_EQ(event.status, RecvStatus::kMessage);
    EXPECT_EQ(event.peer, 1u);
  }
}

TEST(TcpTransport, LargePayloadRoundTripsBothWays) {
  if (!socketpair_available()) {
    GTEST_SKIP() << "no AF_UNIX socketpair in this sandbox";
  }
  int fds[2];
  ASSERT_TRUE(make_stream_socketpair(fds));
  auto master = TcpTransport::master({fds[0]});
  auto worker = TcpTransport::worker(fds[1], 1, 2);
  Message big;
  big.dest = 1;
  big.tag = kTagModelBroadcast;
  big.payload.resize(std::size_t{1} << 20);
  for (std::size_t i = 0; i < big.payload.size(); ++i) {
    big.payload[i] = static_cast<double>(i) * 0.25;
  }
  RecvEvent at_worker;
  std::thread echo([&] {
    at_worker = worker->recv();
    Message reply = at_worker.message;
    reply.dest = 0;
    reply.tag = kTagGradient;
    worker->send(std::move(reply));
  });
  ASSERT_TRUE(master->send(big));
  const RecvEvent at_master = master->recv_for(std::chrono::seconds(10));
  echo.join();
  ASSERT_EQ(at_worker.status, RecvStatus::kMessage);
  EXPECT_EQ(at_worker.message.payload, big.payload);
  ASSERT_EQ(at_master.status, RecvStatus::kMessage);
  EXPECT_EQ(at_master.message.payload, big.payload);
}

TEST(TcpTransport, LargeReplyBeforeLargeBroadcastDoesNotDeadlock) {
  if (!socketpair_available()) {
    GTEST_SKIP() << "no AF_UNIX socketpair in this sandbox";
  }
  // The worker writes its 8 MiB reply before reading the master's 8 MiB
  // broadcast: both sockets fill, and only a master that reads while its
  // send waits for space lets the two finish.
  int fds[2];
  ASSERT_TRUE(make_stream_socketpair(fds));
  auto master = TcpTransport::master({fds[0]});
  auto worker = TcpTransport::worker(fds[1], 1, 2);
  const std::vector<double> payload(std::size_t{1} << 20, 0.5);
  RecvEvent at_master;
  RecvEvent at_worker;
  auto exchange = std::async(std::launch::async, [&] {
    std::thread replier([&] {
      Message reply;
      reply.dest = 0;
      reply.tag = kTagGradient;
      reply.payload = payload;
      worker->send(std::move(reply));
      at_worker = worker->recv();
    });
    Message broadcast;
    broadcast.dest = 1;
    broadcast.tag = kTagModelBroadcast;
    broadcast.payload = payload;
    master->send(std::move(broadcast));
    at_master = master->recv_for(std::chrono::seconds(10));
    replier.join();
  });
  const auto status = exchange.wait_for(std::chrono::seconds(10));
  const bool finished = status == std::future_status::ready;
  if (!finished) {
    // Fail instead of hanging: shutting both ends down breaks the wait.
    ::shutdown(fds[0], SHUT_RDWR);
    ::shutdown(fds[1], SHUT_RDWR);
  }
  exchange.wait();
  ASSERT_TRUE(finished) << "master and worker deadlocked";
  ASSERT_EQ(at_master.status, RecvStatus::kMessage);
  EXPECT_EQ(at_master.message.payload, payload);
  ASSERT_EQ(at_worker.status, RecvStatus::kMessage);
  EXPECT_EQ(at_worker.message.payload, payload);
}

TEST(InProcNetwork, CrossThreadPingPong) {
  InProcNetwork net(2);
  std::thread peer([&net] {
    Message m;
    ASSERT_EQ(net.recv(1, m), PopStatus::kItem);
    Message reply;
    reply.source = 1;
    reply.dest = 0;
    reply.iteration = m.iteration + 1;
    net.send(std::move(reply));
  });
  Message ping;
  ping.source = 0;
  ping.dest = 1;
  ping.iteration = 41;
  net.send(std::move(ping));
  Message pong;
  ASSERT_EQ(net.recv(0, pong), PopStatus::kItem);
  EXPECT_EQ(pong.iteration, 42);
  peer.join();
}

}  // namespace
}  // namespace coupon::comm
