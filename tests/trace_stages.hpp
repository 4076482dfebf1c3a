// Test-side adapters from a flow trace to the stage API: the per-pair
// types a test states as a map become the dense per-row types the stages
// take, and a fresh pair index is built where a stage needs one.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "llmprism/core/comm_type.hpp"
#include "llmprism/core/timeline.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

/// Classify every communication pair of `trace` over a fresh pair index.
inline CommTypeResult identify(const CommTypeIdentifier& identifier,
                               const FlowView& trace) {
  return identifier.identify(trace, PairIndex(trace));
}

/// Every GPU's timeline, the per-pair types given as a map (pairs missing
/// from it count as PP).
inline std::vector<GpuTimeline> reconstruct_all(
    const TimelineReconstructor& reconstructor, const FlowColumns& trace,
    const std::unordered_map<GpuPair, CommType>& types,
    const TimelineCarryContext& ctx = {}, ThreadPool* pool = nullptr) {
  std::vector<CommType> flow_types;
  flow_types.reserve(trace.size());
  for (const FlowRecord& f : trace) {
    const auto it = types.find(f.pair());
    flow_types.push_back(it != types.end() ? it->second : CommType::kPP);
  }
  return reconstructor.reconstruct_all(trace, flow_types, nullptr, ctx,
                                       pool);
}

/// One GPU's timeline; empty (with `gpu` set) when no flow touches it.
inline GpuTimeline reconstruct(
    const TimelineReconstructor& reconstructor, GpuId gpu,
    const FlowColumns& trace,
    const std::unordered_map<GpuPair, CommType>& types) {
  for (GpuTimeline& timeline : reconstruct_all(reconstructor, trace, types)) {
    if (timeline.gpu == gpu) return std::move(timeline);
  }
  GpuTimeline empty;
  empty.gpu = gpu;
  return empty;
}

}  // namespace llmprism
