#include "llmprism/serve/frame.hpp"

#include <algorithm>

#include "llmprism/common/byte_codec.hpp"

namespace llmprism::serve {

namespace {

using codec::ByteReader;
using codec::ByteWriter;

constexpr const char* kPrefix = "frame: ";

/// The header's bytes: the shared head (the tag is the frame type), then
/// the stream id and the payload length.
ByteWriter header_bytes(const FrameHeader& header) {
  ByteWriter w;
  w.head(kFrameMagic, header.version, static_cast<std::uint16_t>(header.type));
  w.u64(header.stream_id);
  w.u64(header.payload_bytes);
  return w;
}

}  // namespace

void encode_frame_header(const FrameHeader& header,
                         std::byte out[kFrameHeaderSize]) {
  ByteWriter w = header_bytes(header);
  std::ranges::copy(std::as_bytes(std::span(w.bytes())), out);
}

FrameHeader decode_frame_header(std::span<const std::byte> buf) {
  ByteReader r(buf, kPrefix);
  if (buf.size() < kFrameHeaderSize) {
    r.fail("short header (" + std::to_string(buf.size()) + " bytes)");
  }
  FrameHeader h;
  h.type = static_cast<FrameType>(
      r.head(kFrameMagic, kFrameVersion, "framing lost"));
  h.stream_id = r.u64();
  h.payload_bytes = r.u64();
  if (h.payload_bytes > kMaxFramePayload) {
    r.fail("payload too large (" + std::to_string(h.payload_bytes) +
           " bytes)");
  }
  return h;
}

std::string encode_frame(FrameType type, std::uint64_t stream_id,
                         std::string_view payload) {
  FrameHeader h;
  h.type = type;
  h.stream_id = stream_id;
  h.payload_bytes = payload.size();
  std::string out = std::move(header_bytes(h).bytes());
  out.append(payload);
  return out;
}

std::string encode_ack(std::uint64_t stream_id, const AckPayload& ack) {
  ByteWriter w;
  w.u64(ack.flows_accepted);
  w.u64(ack.queue_depth);
  w.u64(ack.backpressure_waits);
  return encode_frame(FrameType::kAck, stream_id, w.bytes());
}

AckPayload decode_ack(std::span<const std::byte> payload) {
  ByteReader r(payload, kPrefix);
  if (payload.size() != 24) {
    r.fail("ack payload must be 24 bytes, got " +
           std::to_string(payload.size()));
  }
  AckPayload ack;
  ack.flows_accepted = r.u64();
  ack.queue_depth = r.u64();
  ack.backpressure_waits = r.u64();
  return ack;
}

}  // namespace llmprism::serve
