// Ablation baselines for communication-type identification, stripped of the
// step-division + mode machinery of Alg. 2:
//  * GlobalDistinctSizeClassifier — counts distinct sizes over the whole
//    window (no per-step mode): one collector glitch anywhere flips a pair.
//  * VolumeThresholdClassifier — "DP is big, PP is small": a hand-tuned
//    byte threshold on the mean flow size. Breaks whenever a tenant's
//    activation size rivals its gradient-bucket size.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "llmprism/common/comm_type.hpp"
#include "llmprism/common/ids.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

/// Classify every pair in `job_trace`: DP iff > 1 distinct size overall,
/// sizes clustered exactly as Alg. 2 clusters them
/// (CommTypeIdentifier::count_distinct_sizes).
[[nodiscard]] std::unordered_map<GpuPair, CommType>
classify_by_global_distinct_sizes(const FlowView& job_trace);

struct VolumeThresholdConfig {
  std::uint64_t dp_threshold_bytes = 64ull << 20;  ///< mean size above => DP
};

/// Classify every pair in `job_trace` by mean flow size.
[[nodiscard]] std::unordered_map<GpuPair, CommType>
classify_by_volume_threshold(const FlowView& job_trace,
                             const VolumeThresholdConfig& config = {});

}  // namespace llmprism
