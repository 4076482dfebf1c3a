// LPF — the prismd ingest wire format (DESIGN.md §14).
//
// A collector streams flow chunks to the daemon as length-prefixed frames
// over a Unix or TCP socket. Each frame is a fixed 24-byte little-endian
// header followed by `payload_bytes` of payload; a flow-chunk payload is
// one complete LFT image (the exact bytes `prism convert` writes), which
// the daemon decodes straight into columns with read_lft_buffer — head,
// section sizes, checksum and the column check — before a single flow is
// trusted. The header is read through the shared byte codec
// (common/byte_codec.hpp): its head is the codec's magic/version/tag with
// the frame type as the tag. LPF's own rule is the payload cap.
//
// Frame header layout:
//   0   char[4]  magic "LPF1"
//   4   u16      version        (currently 1)
//   6   u16      type           (FrameType)
//   8   u64      stream_id      (collector-chosen; shards jobs: a stream's
//                               frames always land on shard id % shards)
//   16  u64      payload_bytes  (<= kMaxFramePayload)
//
// The daemon answers every client frame on the same connection:
//   kFlowChunk -> kAck (AckPayload: flows accepted, the owning shard's
//                 current queue depth, cumulative backpressure waits — a
//                 client throttles when depth approaches the capacity it
//                 was told about) or kError (message payload; the chunk
//                 was dropped, the connection stays usable),
//   kPing      -> kAck with a zero AckPayload (liveness probe).
//
// A malformed *header* (bad magic/version/oversized payload) is not
// recoverable — the daemon sends kError and closes the connection, since
// framing sync is lost. A well-framed but corrupt LFT payload only fails
// that chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace llmprism::serve {

inline constexpr char kFrameMagic[4] = {'L', 'P', 'F', '1'};
inline constexpr std::uint16_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 24;
/// Upper bound a single frame may carry (1 GiB) — rejects absurd lengths
/// before any allocation.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

enum class FrameType : std::uint16_t {
  kFlowChunk = 1,  ///< payload: one complete LFT image
  kPing = 2,       ///< payload: empty (liveness probe)
  kAck = 0x8001,   ///< daemon -> client; payload: AckPayload
  kError = 0x8002, ///< daemon -> client; payload: UTF-8 message
};

struct FrameHeader {
  std::uint16_t version = kFrameVersion;
  FrameType type = FrameType::kPing;
  std::uint64_t stream_id = 0;
  std::uint64_t payload_bytes = 0;
};

/// Ack payload (24 bytes little-endian: three u64).
struct AckPayload {
  std::uint64_t flows_accepted = 0;
  /// Chunks queued on the owning shard right after this one was accepted.
  std::uint64_t queue_depth = 0;
  /// Cumulative times any producer blocked on a full shard queue.
  std::uint64_t backpressure_waits = 0;
};

/// Serialize a header into exactly kFrameHeaderSize bytes.
void encode_frame_header(const FrameHeader& header,
                         std::byte out[kFrameHeaderSize]);

/// Parse and validate a header. Throws std::runtime_error on short input,
/// bad magic, unsupported version, or payload_bytes > kMaxFramePayload.
[[nodiscard]] FrameHeader decode_frame_header(std::span<const std::byte> buf);

/// Whole frame (header + payload) as a byte string — what a client writes.
[[nodiscard]] std::string encode_frame(FrameType type, std::uint64_t stream_id,
                                       std::string_view payload);

[[nodiscard]] std::string encode_ack(std::uint64_t stream_id,
                                     const AckPayload& ack);
/// Throws std::runtime_error when the payload is not exactly 24 bytes.
[[nodiscard]] AckPayload decode_ack(std::span<const std::byte> payload);

}  // namespace llmprism::serve
