#include "comm/message.hpp"

#include <bit>
#include <cstring>
#include <type_traits>

#include "util/assert.hpp"

namespace coupon::comm {

namespace {

constexpr std::uint32_t kMagic = 0xBCCC0DE5u;

// Fields and arrays are copied in host byte order onto a little-endian
// wire.
static_assert(std::endian::native == std::endian::little,
              "the wire format assumes a little-endian host");

/// Bytes before the meta array: magic (4); source, dest, tag (3 x 4);
/// iteration (8); the two array lengths (2 x 8).
constexpr std::size_t kHeaderBytes = 40;

/// memcpy that accepts the null `data()` of an empty vector.
void copy_bytes(void* to, const void* from, std::size_t n) {
  if (n != 0) {
    std::memcpy(to, from, n);
  }
}

template <typename T>
std::uint8_t* put(std::uint8_t* at, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(at, &value, sizeof(T));
  return at + sizeof(T);
}

template <typename T>
const std::uint8_t* get(const std::uint8_t* at, T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(&value, at, sizeof(T));
  return at + sizeof(T);
}

}  // namespace

std::size_t Message::wire_size() const {
  return kHeaderBytes + meta.size() * sizeof(std::int64_t) +
         payload.size() * sizeof(double);
}

void serialize(const Message& m, std::span<std::uint8_t> out) {
  COUPON_ASSERT(out.size() == m.wire_size());
  std::uint8_t* at = out.data();
  at = put(at, kMagic);
  at = put(at, m.source);
  at = put(at, m.dest);
  at = put(at, m.tag);
  at = put(at, m.iteration);
  at = put(at, static_cast<std::uint64_t>(m.meta.size()));
  at = put(at, static_cast<std::uint64_t>(m.payload.size()));
  const std::size_t meta_bytes = m.meta.size() * sizeof(std::int64_t);
  copy_bytes(at, m.meta.data(), meta_bytes);
  copy_bytes(at + meta_bytes, m.payload.data(),
             m.payload.size() * sizeof(double));
}

std::vector<std::uint8_t> serialize(const Message& m) {
  std::vector<std::uint8_t> buf(m.wire_size());
  serialize(m, buf);
  return buf;
}

bool deserialize(std::span<const std::uint8_t> bytes, Message& out) {
  if (bytes.size() < kHeaderBytes) {
    return false;
  }
  const std::uint8_t* at = bytes.data();
  std::uint32_t magic = 0;
  at = get(at, magic);
  if (magic != kMagic) {
    return false;
  }
  std::int32_t source = 0;
  std::int32_t dest = 0;
  std::int32_t tag = 0;
  std::int64_t iteration = 0;
  std::uint64_t meta_len = 0;
  std::uint64_t payload_len = 0;
  at = get(at, source);
  at = get(at, dest);
  at = get(at, tag);
  at = get(at, iteration);
  at = get(at, meta_len);
  at = get(at, payload_len);
  // Compare each length with the bytes left before multiplying: a crafted
  // length times 8 wraps around and would pass an exact-size check.
  std::size_t left = bytes.size() - kHeaderBytes;
  if (meta_len > left / sizeof(std::int64_t)) {
    return false;
  }
  left -= meta_len * sizeof(std::int64_t);
  if (payload_len > left / sizeof(double) ||
      payload_len * sizeof(double) != left) {
    return false;
  }
  out.source = source;
  out.dest = dest;
  out.tag = tag;
  out.iteration = iteration;
  out.meta.resize(meta_len);
  out.payload.resize(payload_len);
  const std::size_t meta_bytes = meta_len * sizeof(std::int64_t);
  copy_bytes(out.meta.data(), at, meta_bytes);
  copy_bytes(out.payload.data(), at + meta_bytes, left);
  return true;
}

}  // namespace coupon::comm
