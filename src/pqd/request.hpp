// pqd request/response types and their wire encoding.
//
// Every transport moves the same two PODs (docs/SERVICE.md): a Request
// (one client op) and a Response (the result of a synchronous op —
// inserts are fire-and-forget, so only DeleteMin and Flush produce
// responses, delivered FIFO per session). The wire codec is the byte
// format the socket transport ships: fixed-size little-endian records,
// versioned by kWireVersion, shared by both endpoints and unit-testable
// without a socket.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>

#include "harness/backend.hpp"

namespace pqd {

using Key = harness::Key;
using Value = harness::Value;
using Item = std::pair<Key, Value>;

/// kEmptyKey is what an empty shard publishes as its minimum
/// (service.cpp). User keys must stay below kMaxUserKey; the service
/// rejects inserts at or above it.
inline constexpr Key kEmptyKey = std::numeric_limits<Key>::max();
inline constexpr Key kMaxUserKey = kEmptyKey - 1;

enum class OpKind : std::uint8_t {
  kInsert = 0,     ///< enqueue (key, value); batched, no response
  kDeleteMin = 1,  ///< min-of-shards pop; response kOk item or kEmpty
  kFlush = 2,      ///< force pending inserts into shards; response is an ack
};

enum class Status : std::uint8_t {
  kOk = 0,     ///< DeleteMin: item follows; Flush: ack
  kEmpty = 1,  ///< DeleteMin found every shard empty
};

struct Request {
  OpKind op = OpKind::kInsert;
  Key key = 0;
  Value value = 0;
};

struct Response {
  Status status = Status::kEmpty;
  Key key = 0;
  Value value = 0;
};

// ---- wire codec (pqd-wire/1) ----------------------------------------------
//
// One record per Request/Response: opcode/status byte, then key and value
// as little-endian 64-bit words. Fixed size keeps framing trivial (no
// length prefix); the version byte rides in the session hello.

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kWireRecordSize = 1 + 8 + 8;

namespace wire {

inline void put_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace wire

inline void encode_request(const Request& r,
                           std::uint8_t out[kWireRecordSize]) noexcept {
  out[0] = static_cast<std::uint8_t>(r.op);
  wire::put_u64(out + 1, static_cast<std::uint64_t>(r.key));
  wire::put_u64(out + 9, r.value);
}

/// Returns false on an unknown opcode (protocol error).
inline bool decode_request(const std::uint8_t in[kWireRecordSize],
                           Request& out) noexcept {
  if (in[0] > static_cast<std::uint8_t>(OpKind::kFlush)) return false;
  out.op = static_cast<OpKind>(in[0]);
  out.key = static_cast<Key>(wire::get_u64(in + 1));
  out.value = wire::get_u64(in + 9);
  return true;
}

inline void encode_response(const Response& r,
                            std::uint8_t out[kWireRecordSize]) noexcept {
  out[0] = static_cast<std::uint8_t>(r.status);
  wire::put_u64(out + 1, static_cast<std::uint64_t>(r.key));
  wire::put_u64(out + 9, r.value);
}

inline bool decode_response(const std::uint8_t in[kWireRecordSize],
                            Response& out) noexcept {
  if (in[0] > static_cast<std::uint8_t>(Status::kEmpty)) return false;
  out.status = static_cast<Status>(in[0]);
  out.key = static_cast<Key>(wire::get_u64(in + 1));
  out.value = wire::get_u64(in + 9);
  return true;
}

}  // namespace pqd
