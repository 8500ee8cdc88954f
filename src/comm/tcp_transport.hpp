#pragma once

/// \file tcp_transport.hpp
/// Stream-socket `Transport` for the multi-process runtime (DESIGN.md §9).
///
/// Wire format: each message travels as one length-prefixed frame,
/// `[u64 length, little-endian][serialize(Message)]` — the explicit
/// prefix is what lets a byte stream be cut back into the exact-size
/// spans `deserialize` demands. Loopback TCP connections and AF_UNIX
/// stream socketpairs carry the identical framing; `make_stream_pair`
/// picks one, so the caller never branches on the socket type.
///
/// Crash detection is the kernel's: when a worker process dies (SIGKILL
/// included), its socket closes and the master's poll loop reads EOF —
/// surfaced, after that stream's last whole frame, as one
/// `RecvStatus::kPeerClosed` event for that rank, kept distinct from
/// `kTimeout` (peer slow) and `kClosed` (endpoint shut down by its
/// owner).

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/transport.hpp"

struct pollfd;

namespace coupon::comm {

/// True when this sandbox can create (and connect over) loopback TCP
/// sockets. Probed once.
bool tcp_loopback_available();

/// True when AF_UNIX stream socketpairs can be created. Probed once.
bool socketpair_available();

/// Creates a connected AF_UNIX stream pair; false when the sandbox
/// forbids it.
bool make_stream_socketpair(int fds[2]);

/// Creates a connected stream pair within this process: loopback TCP
/// where `tcp_loopback_available()`, else an AF_UNIX socketpair. Both
/// ends are ordinary blocking fds; `fds[0]` and `fds[1]` are
/// interchangeable. False when neither socket type can be made.
bool make_stream_pair(int fds[2]);

/// Stream-socket `Transport` endpoint. Two shapes share the class:
///
///  - `master()` owns one connected stream per worker. `recv`/`recv_for`
///    run one poll() loop on the caller's thread: each ready stream is
///    read without blocking into its own buffer, and whole frames are cut
///    out of those buffers in place, round-robin across streams and in
///    order within each. A stream's EOF (or a corrupt frame) becomes one
///    kPeerClosed after its last whole frame. A `send` that has to wait
///    for socket space keeps reading every stream meanwhile, so a worker
///    blocked writing a large reply cannot deadlock the master.
///  - `worker()` owns the single stream to the master and reads it
///    through the same frame buffer, one blocking recv() per wait; master
///    EOF surfaces as kClosed.
///
/// No call starts a thread, so every call on an endpoint, `send`
/// included, belongs to the endpoint's owning thread.
class TcpTransport final : public Transport {
 public:
  /// Master endpoint (rank 0). `worker_fds[i]` is the connected stream
  /// to worker rank i+1; the transport takes ownership of every fd.
  static std::unique_ptr<TcpTransport> master(std::vector<int> worker_fds);

  /// Worker endpoint over the single stream to the master. Takes
  /// ownership of `fd`.
  static std::unique_ptr<TcpTransport> worker(int fd, std::size_t rank,
                                              std::size_t num_ranks);

  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  std::size_t rank() const override { return rank_; }
  std::size_t num_ranks() const override { return num_ranks_; }
  bool send(Message m) override;
  RecvEvent recv() override;
  RecvEvent recv_for(std::chrono::milliseconds timeout) override;
  void close() override;

 private:
  /// One connected stream and the bytes read from it that no frame has
  /// consumed yet: [begin, end) of `buf`.
  struct Stream {
    int fd = -1;
    std::vector<std::uint8_t> buf;
    std::size_t begin = 0;
    std::size_t end = 0;
    bool eof = false;       ///< EOF, a read error or a corrupt frame seen
    bool reported = false;  ///< the master returned its kPeerClosed

    /// One recv() with `flags` into the free tail of `buf`, which is
    /// compacted or doubled first when little is free. EOF and hard
    /// errors set `eof`; EAGAIN changes nothing.
    void read_some(int flags);
  };

  TcpTransport(std::size_t rank, std::size_t num_ranks, std::vector<int> fds);

  /// The next event the buffered bytes already hold: a whole frame, or a
  /// finished stream's close. Streams take turns, starting after the one
  /// that produced the previous event. False when there is neither.
  bool next_event(RecvEvent& event);

  /// Polls every unfinished stream for input — and `writer`, when given,
  /// for space to write — for up to `timeout_ms` (-1: no limit), then
  /// reads each stream that polled ready once. Returns poll()'s result.
  int poll_and_read(int timeout_ms, const Stream* writer);

  /// Writes `wire_` to `dest`, reading every stream while the socket is
  /// full. False when the peer is gone.
  bool write_frame(const Stream& dest);

  /// Stream to `dest`: streams_[0] on a worker, streams_[dest-1] on the
  /// master.
  const Stream& stream_for(std::size_t dest) const;

  std::size_t rank_;
  std::size_t num_ranks_;
  std::vector<Stream> streams_;
  std::vector<pollfd> poll_set_;    // one entry per stream, same order
  std::size_t next_stream_ = 0;     // where next_event's turn starts
  std::vector<std::uint8_t> wire_;  // the frame being sent
  bool closed_ = false;
};

}  // namespace coupon::comm
