// Packetization: expand ground-truth flows into the packet stream a
// mirrored switch port would emit.
#pragma once

#include <cstdint>
#include <vector>

#include "llmprism/collector/packet.hpp"
#include "llmprism/common/rng.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

struct PacketizeConfig {
  std::uint32_t mtu_bytes = 4096;  ///< RoCE jumbo-frame payload
  /// Packets per flow are capped (a real mirror samples long flows; and it
  /// bounds memory here). The flow's bytes are spread over the emitted
  /// packets so byte accounting stays exact.
  std::uint32_t max_packets_per_flow = 64;
  /// Uniform jitter on per-packet spacing (fraction of the nominal gap).
  double pacing_jitter = 0.1;
};

/// Expand each flow into packets observed at the FIRST switch of its path
/// (the mirror point). Packets are paced uniformly across the flow's
/// duration. Flows with an empty switch path (intra-machine) emit nothing —
/// exactly why TP traffic is invisible. The result is timestamp-sorted.
[[nodiscard]] std::vector<PacketRecord> packetize(
    const FlowView& flows, const PacketizeConfig& config, Rng& rng);

}  // namespace llmprism
