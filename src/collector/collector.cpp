#include "llmprism/collector/collector.hpp"

#include <stdexcept>
#include <unordered_map>

namespace llmprism {

namespace {

/// Open flow-cache entry for one directed endpoint pair.
struct CacheEntry {
  TimeNs first_packet = 0;
  TimeNs last_packet = 0;
  std::uint64_t bytes = 0;
  std::size_t packets = 0;
};

/// Directed pair key (collectors key on the 5-tuple; direction matters).
struct DirectedPair {
  GpuId src;
  GpuId dst;
  friend constexpr bool operator==(const DirectedPair&,
                                   const DirectedPair&) = default;
};

struct DirectedPairHash {
  std::size_t operator()(const DirectedPair& p) const noexcept {
    return std::hash<GpuPair>{}(GpuPair(p.src, p.dst)) ^
           (p.src < p.dst ? 0x9e3779b9u : 0x7f4a7c15u);
  }
};

}  // namespace

FlowColumns collect_flows(std::span<const PacketRecord> packets,
                          const ClusterTopology& topology,
                          const CollectorConfig& config, Rng& rng) {
  if (config.idle_timeout <= 0 || config.active_timeout <= 0) {
    throw std::invalid_argument("collector: timeouts must be positive");
  }
  if (config.sampling_ratio <= 0.0 || config.sampling_ratio > 1.0) {
    throw std::invalid_argument("collector: sampling_ratio must be in (0,1]");
  }

  FlowColumns out;
  std::unordered_map<DirectedPair, CacheEntry, DirectedPairHash> cache;

  auto emit = [&](const DirectedPair& key, const CacheEntry& entry) {
    FlowRecord f;
    f.start_time = entry.first_packet;
    f.src = key.src;
    f.dst = key.dst;
    // Sampled collectors scale byte counts back up.
    f.bytes = static_cast<std::uint64_t>(
        static_cast<double>(entry.bytes) / config.sampling_ratio);
    f.duration = std::max<DurationNs>(1, entry.last_packet -
                                             entry.first_packet);
    f.switches = topology.route(key.src, key.dst);
    out.add(f);
  };

  for (const PacketRecord& pkt : packets) {
    if (config.sampling_ratio < 1.0 &&
        !rng.bernoulli(config.sampling_ratio)) {
      continue;
    }
    const DirectedPair key{pkt.src, pkt.dst};
    auto it = cache.find(key);
    if (it != cache.end()) {
      CacheEntry& entry = it->second;
      const bool idle_expired =
          pkt.timestamp - entry.last_packet > config.idle_timeout;
      const bool active_expired =
          pkt.timestamp - entry.first_packet > config.active_timeout;
      if (idle_expired || active_expired) {
        emit(key, entry);
        entry = CacheEntry{};
        entry.first_packet = pkt.timestamp;
      }
      entry.last_packet = pkt.timestamp;
      entry.bytes += pkt.bytes;
      ++entry.packets;
    } else {
      CacheEntry entry;
      entry.first_packet = pkt.timestamp;
      entry.last_packet = pkt.timestamp;
      entry.bytes = pkt.bytes;
      entry.packets = 1;
      cache.emplace(key, entry);
    }
  }
  // End of stream: flush every open record.
  for (const auto& [key, entry] : cache) {
    if (entry.packets > 0) emit(key, entry);
  }
  out.sort();
  return out;
}

}  // namespace llmprism
