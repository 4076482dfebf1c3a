// Flow-record collector: turns a mirrored packet stream back into the flow
// records LLMPrism consumes (§II-B schema).
//
// Real collectors (ERSPAN terminators, sFlow/NetFlow caches) group packets
// by endpoint pair and cut flow records on two timers:
//  * idle timeout  — a gap with no packets ends the record,
//  * active timeout — a long-lived record is cut even without a gap.
// Both knobs shape what the analysis layer sees: a too-coarse idle timeout
// merges a whole DP burst (several collective buckets) into one record —
// destroying the "several distinct sizes per step" DP signature — while a
// too-fine one fragments flows. bench_ablation quantifies the effect.
#pragma once

#include <cstdint>
#include <span>

#include "llmprism/collector/packet.hpp"
#include "llmprism/common/rng.hpp"
#include "llmprism/flow/view.hpp"
#include "llmprism/topology/topology.hpp"

namespace llmprism {

struct CollectorConfig {
  DurationNs idle_timeout = 500 * kMicrosecond;
  DurationNs active_timeout = 100 * kMillisecond;
  /// Packet sampling ratio (1.0 = every packet; 0.25 = 1-in-4). Sampled
  /// collectors scale recorded bytes back up by 1/ratio.
  double sampling_ratio = 1.0;
};

/// Reassemble flow records from a timestamp-sorted packet stream. Each
/// record's switch path is recomputed from the topology (the collector
/// knows the fabric). The result is time-sorted.
/// Throws std::invalid_argument on non-positive timeouts or a sampling
/// ratio outside (0, 1].
[[nodiscard]] FlowColumns collect_flows(std::span<const PacketRecord> packets,
                                        const ClusterTopology& topology,
                                        const CollectorConfig& config,
                                        Rng& rng);

}  // namespace llmprism
