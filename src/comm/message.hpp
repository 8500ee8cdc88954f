#pragma once

/// \file message.hpp
/// Typed message exchanged between master and workers.
///
/// Mirrors the shape of the paper's MPI traffic: the master broadcasts the
/// current model (payload = w_t), workers reply with encoded gradients
/// (payload = z_i, meta = scheme-specific identifiers such as the batch
/// index a BCC worker processed).

#include <cstdint>
#include <span>
#include <vector>

namespace coupon::comm {

/// Well-known tags used by the distributed-GD runtime. User code may use
/// any other non-negative value.
enum MessageTag : std::int32_t {
  kTagModelBroadcast = 1,  ///< master -> worker: current weight vector
  kTagGradient = 2,        ///< worker -> master: encoded gradient message
  kTagShutdown = 3,        ///< master -> worker: terminate worker loop
};

/// One routed message. `payload` carries dense numeric data; `meta` carries
/// small scheme-specific integers (batch id, example indices, ...).
struct Message {
  std::int32_t source = -1;
  std::int32_t dest = -1;
  std::int32_t tag = 0;
  std::int64_t iteration = -1;
  std::vector<std::int64_t> meta;
  std::vector<double> payload;

  bool operator==(const Message& other) const = default;

  /// Wire size in bytes if serialized (header + meta + payload).
  std::size_t wire_size() const;

  /// Size of the payload normalized to gradient units; the communication
  /// load L of Definition 3 sums this over received messages.
  std::size_t payload_size() const { return payload.size(); }
};

/// Writes `m`'s little-endian wire bytes into `out`, which must hold
/// exactly `m.wire_size()` bytes — e.g. a frame's body after its length
/// prefix, so the frame leaves as one buffer with no body copy.
void serialize(const Message& m, std::span<std::uint8_t> out);

/// Serializes `m` into a fresh buffer of `m.wire_size()` bytes.
std::vector<std::uint8_t> serialize(const Message& m);

/// Parses bytes produced by `serialize`, in place. Returns false on
/// malformed input (short buffer, bad magic, array lengths that do not
/// match the bytes present) without touching `out`; never throws on a
/// hostile length.
bool deserialize(std::span<const std::uint8_t> bytes, Message& out);

}  // namespace coupon::comm
