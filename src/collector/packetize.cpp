#include "llmprism/collector/packetize.hpp"

#include <algorithm>
#include <stdexcept>

namespace llmprism {

std::vector<PacketRecord> packetize(const FlowView& flows,
                                    const PacketizeConfig& config, Rng& rng) {
  if (config.mtu_bytes == 0 || config.max_packets_per_flow == 0) {
    throw std::invalid_argument(
        "packetize: mtu and max_packets_per_flow must be > 0");
  }
  if (config.pacing_jitter < 0.0 || config.pacing_jitter >= 1.0) {
    throw std::invalid_argument("packetize: pacing_jitter must be in [0, 1)");
  }

  std::vector<PacketRecord> packets;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowRecord f = flows.record(i);
    if (f.switches.empty()) continue;  // intra-machine: never mirrored
    const std::uint64_t wire_packets =
        std::max<std::uint64_t>(1, (f.bytes + config.mtu_bytes - 1) /
                                       config.mtu_bytes);
    const auto emitted = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        wire_packets, config.max_packets_per_flow));
    // Spread the flow's bytes over the emitted packets (exact accounting).
    const std::uint64_t base_bytes = f.bytes / emitted;
    std::uint64_t remainder = f.bytes % emitted;

    const double nominal_gap =
        emitted > 1 ? static_cast<double>(f.duration) / (emitted - 1) : 0.0;
    for (std::uint32_t p = 0; p < emitted; ++p) {
      PacketRecord pkt;
      double at = static_cast<double>(f.start_time) +
                  static_cast<double>(p) * nominal_gap;
      if (p != 0 && p + 1 != emitted && nominal_gap > 0) {
        at += rng.uniform(-config.pacing_jitter, config.pacing_jitter) *
              nominal_gap;
      }
      pkt.timestamp = static_cast<TimeNs>(at);
      pkt.src = f.src;
      pkt.dst = f.dst;
      pkt.bytes = base_bytes + (remainder > 0 ? 1 : 0);
      if (remainder > 0) --remainder;
      pkt.observed_at = f.switches.front();
      packets.push_back(pkt);
    }
  }
  std::sort(packets.begin(), packets.end(), PacketTimestampLess{});
  return packets;
}

}  // namespace llmprism
