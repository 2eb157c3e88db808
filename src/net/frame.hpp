// Wire format of the process mesh: length-prefixed, checksummed frames.
//
//   frame     := header payload
//   header    := u32 kind | u32 target | u64 key | u64 payload_len
//              | u64 seq | u32 payload_crc | u32 header_crc
//   kind      := 1 data | 2 progress | 3 goodbye | 4 heartbeat
//                | 5 ack | 6 nack
//   key       := (dataflow_id << 32) | channel_id   for data frames
//                dataflow_id                        for progress frames
//                final seq (exclusive)              for goodbye frames
//                cumulative ack (next expected)     for ack frames
//                first missing seq                  for nack frames
//   target    := destination global worker index    (data frames only)
//   seq       := per-link sequence number of data/progress frames, from 1;
//                0 on unsequenced frames (goodbye/heartbeat/ack/nack)
//   payload   := serde bytes (bundle: T time, vector<D> records;
//                progress: u64 n, n * Change{u32 loc, T time, i64 delta};
//                heartbeat: HeartbeatBody)
//
// The two checksums split the failure modes: a bad header_crc means the
// stream itself is unframeable (desync or truncation) and the peer is
// declared down; a bad payload_crc on a sequenced frame is recoverable —
// the receiver discards the frame and nacks, and the sender retransmits
// from its go-back-N buffer.
//
// Header fields are fixed-width host-endian integers: every process of a
// run executes the same binary on the same machine (the self-forking
// launcher), which is the deployment this reproduction models. A
// connection opens with a handshake (magic, protocol version, sender's
// process index) so misconfigured meshes fail loudly instead of
// misrouting frames.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/serde.hpp"

namespace megaphone {
namespace net {

enum class FrameKind : uint32_t {
  kData = 1,
  kProgress = 2,
  kGoodbye = 3,
  kHeartbeat = 4,
  kAck = 5,
  kNack = 6,
};

/// Only data and progress frames carry sequence numbers and flow through
/// the retransmit buffer; protocol frames are idempotent or cumulative.
inline bool IsSequencedKind(uint32_t kind) {
  return kind == static_cast<uint32_t>(FrameKind::kData) ||
         kind == static_cast<uint32_t>(FrameKind::kProgress);
}

struct FrameHeader {
  uint32_t kind = 0;
  uint32_t target = 0;
  uint64_t key = 0;
  uint64_t payload_len = 0;
  uint64_t seq = 0;
  uint32_t payload_crc = 0;
};

constexpr size_t kFrameHeaderBytes = 40;
constexpr size_t kFrameHeaderCrcOffset = 36;
/// Upper bound on a single frame payload: far above any real bundle or
/// progress batch (the largest legitimate payloads are migrating bins),
/// far below what a corrupted length prefix could use to exhaust memory.
constexpr uint64_t kMaxFramePayload = 1ull << 30;

/// FNV-1a folded to 32 bits (common/hash.hpp).
inline uint32_t FrameChecksum(const uint8_t* data, size_t n) {
  Fnv1a h;
  h.Update(data, n);
  return h.Fold32();
}

inline void EncodeFrameHeader(uint8_t* out, const FrameHeader& h) {
  std::memcpy(out, &h.kind, 4);
  std::memcpy(out + 4, &h.target, 4);
  std::memcpy(out + 8, &h.key, 8);
  std::memcpy(out + 16, &h.payload_len, 8);
  std::memcpy(out + 24, &h.seq, 8);
  std::memcpy(out + 32, &h.payload_crc, 4);
  uint32_t crc = FrameChecksum(out, kFrameHeaderCrcOffset);
  std::memcpy(out + kFrameHeaderCrcOffset, &crc, 4);
}

/// Graceful decode: returns false when the header checksum does not match
/// (the stream is desynced or corrupted beyond frame recovery).
inline bool TryDecodeFrameHeader(const uint8_t* in, FrameHeader* h) {
  uint32_t crc = 0;
  std::memcpy(&crc, in + kFrameHeaderCrcOffset, 4);
  if (crc != FrameChecksum(in, kFrameHeaderCrcOffset)) return false;
  std::memcpy(&h->kind, in, 4);
  std::memcpy(&h->target, in + 4, 4);
  std::memcpy(&h->key, in + 8, 8);
  std::memcpy(&h->payload_len, in + 16, 8);
  std::memcpy(&h->seq, in + 24, 8);
  std::memcpy(&h->payload_crc, in + 32, 4);
  return true;
}

inline FrameHeader DecodeFrameHeader(const uint8_t* in) {
  FrameHeader h;
  MEGA_CHECK(TryDecodeFrameHeader(in, &h)) << "frame header checksum mismatch";
  return h;
}

/// Builds a ready-to-write frame (header + payload in one buffer).
inline std::vector<uint8_t> BuildFrame(FrameKind kind, uint32_t target,
                                       uint64_t key,
                                       const std::vector<uint8_t>& payload,
                                       uint64_t seq = 0) {
  FrameHeader h;
  h.kind = static_cast<uint32_t>(kind);
  h.target = target;
  h.key = key;
  h.payload_len = payload.size();
  h.seq = seq;
  h.payload_crc = FrameChecksum(payload.data(), payload.size());
  std::vector<uint8_t> frame(kFrameHeaderBytes + payload.size());
  EncodeFrameHeader(frame.data(), h);
  if (!payload.empty()) {
    std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  return frame;
}

inline uint64_t DataKey(uint64_t dataflow_id, uint64_t channel_id) {
  MEGA_DCHECK(dataflow_id < (1ull << 32) && channel_id < (1ull << 32));
  return (dataflow_id << 32) | channel_id;
}

/// Payload of a kHeartbeat frame. Heartbeats double as keepalive and as
/// the idle-path acknowledgement carrier: `next_seq` lets the receiver
/// detect a tail gap (frames written but lost with no later traffic to
/// reveal them), `ack` prunes the sender's retransmit buffer.
struct HeartbeatBody {
  /// Sender has written every sequenced frame with seq < next_seq.
  uint64_t next_seq = 1;
  /// Sender has delivered every incoming sequenced frame with seq < ack.
  uint64_t ack = 1;
  MEGA_SERDE_FIELDS(HeartbeatBody, next_seq, ack)
};

// --- connection handshake -------------------------------------------------

constexpr uint64_t kHandshakeMagic = 0x4d45474150484f4eULL;  // "MEGAPHON"
constexpr uint32_t kProtocolVersion = 2;
constexpr size_t kHandshakeBytes = 16;

struct Handshake {
  uint64_t magic = kHandshakeMagic;
  uint32_t version = kProtocolVersion;
  uint32_t process = 0;
};

inline void EncodeHandshake(uint8_t* out, const Handshake& h) {
  std::memcpy(out, &h.magic, 8);
  std::memcpy(out + 8, &h.version, 4);
  std::memcpy(out + 12, &h.process, 4);
}

inline Handshake DecodeHandshake(const uint8_t* in) {
  Handshake h;
  std::memcpy(&h.magic, in, 8);
  std::memcpy(&h.version, in + 8, 4);
  std::memcpy(&h.process, in + 12, 4);
  return h;
}

}  // namespace net
}  // namespace megaphone
