// Tests for the message-passing substrate: serialization, the blocking
// queue, and the in-process network.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "comm/comm.hpp"
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

// --- serialization ------------------------------------------------------------

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

// --- blocking queue -------------------------------------------------------------

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
  EXPECT_EQ(q.pop_for(std::chrono::milliseconds(10), out),
            PopStatus::kTimeout);
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

// --- network --------------------------------------------------------------------

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

TEST(InProcNetwork, StatsCountTraffic) {
  InProcNetwork net(2);
  Message m = sample_message();
  m.source = 0;
  m.dest = 1;
  net.send(m);
  net.send(m);
  Message got;
  ASSERT_EQ(net.recv(1, got), PopStatus::kItem);
  const auto s0 = net.stats(0);
  const auto s1 = net.stats(1);
  EXPECT_EQ(s0.messages_sent, 2u);
  EXPECT_EQ(s0.bytes_sent, 2 * m.wire_size());
  EXPECT_EQ(s0.payload_units_sent, 2 * m.payload.size());
  EXPECT_EQ(s1.messages_received, 1u);
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

// --- status pops (EOF distinct from timeout) ------------------------------------

TEST(BlockingQueue, StatusPopDistinguishesItemTimeoutClosed) {
  BlockingQueue<int> q;
  q.push(5);
  int out = 0;
  EXPECT_EQ(q.pop(out), PopStatus::kItem);
  EXPECT_EQ(out, 5);
  EXPECT_EQ(q.pop_for(std::chrono::milliseconds(10), out),
            PopStatus::kTimeout);
  q.push(6);
  q.close();
  EXPECT_EQ(q.pop(out), PopStatus::kItem);  // drains before reporting closed
  EXPECT_EQ(out, 6);
  EXPECT_EQ(q.pop(out), PopStatus::kClosed);
  EXPECT_EQ(q.pop_for(std::chrono::milliseconds(10), out),
            PopStatus::kClosed);
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

// --- Transport seam -------------------------------------------------------------

TEST(InProcessTransport, RoundTripBothDirections) {
  InProcNetwork net(2);
  InProcessTransport master(net, 0);
  InProcessTransport worker(net, 1);
  EXPECT_EQ(master.kind(), "inproc");
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

// --- framed stream transport ----------------------------------------------------

TEST(TcpTransport, FramingRoundTripOverSocketpair) {
  if (!socketpair_available()) {
    GTEST_SKIP() << "no AF_UNIX socketpair in this sandbox";
  }
  int fds[2];
  ASSERT_TRUE(make_stream_socketpair(fds));
  const Message m = sample_message();
  ASSERT_TRUE(send_frame(fds[0], m));
  Message out;
  ASSERT_EQ(recv_frame(fds[1], std::chrono::milliseconds(1000), out),
            FrameStatus::kMessage);
  EXPECT_EQ(out, m);
  // Timeout with no bytes pending, then EOF when the peer closes.
  EXPECT_EQ(recv_frame(fds[1], std::chrono::milliseconds(10), out),
            FrameStatus::kTimeout);
  ::close(fds[0]);
  EXPECT_EQ(recv_frame(fds[1], std::chrono::milliseconds(1000), out),
            FrameStatus::kClosed);
  ::close(fds[1]);
}

TEST(TcpTransport, FramingFuzzSizesOverSocketpair) {
  if (!socketpair_available()) {
    GTEST_SKIP() << "no AF_UNIX socketpair in this sandbox";
  }
  int fds[2];
  ASSERT_TRUE(make_stream_socketpair(fds));
  stats::Rng rng(7);
  std::thread sender([&] {
    stats::Rng sender_rng(7);
    for (int trial = 0; trial < 50; ++trial) {
      Message m;
      m.dest = 0;
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
      ASSERT_TRUE(send_frame(fds[0], m));
    }
    ::close(fds[0]);
  });
  for (int trial = 0; trial < 50; ++trial) {
    Message out;
    ASSERT_EQ(recv_frame(fds[1], std::chrono::milliseconds(5000), out),
              FrameStatus::kMessage);
    EXPECT_EQ(out.iteration, trial);
  }
  Message out;
  EXPECT_EQ(recv_frame(fds[1], std::chrono::milliseconds(5000), out),
            FrameStatus::kClosed);
  sender.join();
  ::close(fds[1]);
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
  EXPECT_EQ(master->kind(), "tcp");
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

TEST(TcpTransport, StatsCountTraffic) {
  if (!socketpair_available()) {
    GTEST_SKIP() << "no AF_UNIX socketpair in this sandbox";
  }
  int fds[2];
  ASSERT_TRUE(make_stream_socketpair(fds));
  auto master = TcpTransport::master({fds[0]});
  auto worker = TcpTransport::worker(fds[1], 1, 2);
  Message m = sample_message();
  const std::size_t wire = m.wire_size();
  const std::size_t units = m.payload.size();
  m.dest = 1;
  ASSERT_TRUE(master->send(std::move(m)));
  ASSERT_EQ(worker->recv().status, RecvStatus::kMessage);
  EXPECT_EQ(master->stats().messages_sent, 1u);
  EXPECT_EQ(master->stats().bytes_sent, wire);
  EXPECT_EQ(master->stats().payload_units_sent, units);
  EXPECT_EQ(worker->stats().messages_received, 1u);
}

TEST(TcpTransport, LoopbackListenerRoundTrip) {
  if (!tcp_loopback_available()) {
    GTEST_SKIP() << "no loopback TCP in this sandbox";
  }
  auto listener = TcpListener::open();
  ASSERT_NE(listener, nullptr);
  std::thread client([port = listener->port()] {
    const int fd = tcp_connect_loopback(port, std::chrono::milliseconds(5000));
    ASSERT_GE(fd, 0);
    auto worker = TcpTransport::worker(fd, 1, 2);
    RecvEvent event = worker->recv();
    ASSERT_EQ(event.status, RecvStatus::kMessage);
    Message reply = event.message;
    reply.dest = 0;
    ASSERT_TRUE(worker->send(std::move(reply)));
  });
  const int accepted = listener->accept_fd(std::chrono::milliseconds(5000));
  ASSERT_GE(accepted, 0);
  auto master = TcpTransport::master({accepted});
  Message m = sample_message();
  m.dest = 1;
  ASSERT_TRUE(master->send(std::move(m)));
  RecvEvent echoed = master->recv_for(std::chrono::milliseconds(5000));
  ASSERT_EQ(echoed.status, RecvStatus::kMessage);
  EXPECT_EQ(echoed.peer, 1u);
  client.join();
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
