// Test-side adapters from the FlowTrace record builder to the FlowView-only
// stage API. Each transposes the trace into FlowColumns once and passes
// .view(), the way any caller holding a trace enters the analysis plane.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "llmprism/core/comm_type.hpp"
#include "llmprism/core/timeline.hpp"
#include "llmprism/flow/trace.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

/// Classify every communication pair of `trace` over a fresh pair index.
inline CommTypeResult identify(const CommTypeIdentifier& identifier,
                               const FlowTrace& trace) {
  const FlowColumns columns(trace);
  return identifier.identify(columns.view(), PairIndex(columns.view()));
}

/// Every GPU's timeline, the per-pair types given as a map (pairs missing
/// from it count as PP).
inline std::vector<GpuTimeline> reconstruct_all(
    const TimelineReconstructor& reconstructor, const FlowTrace& trace,
    const std::unordered_map<GpuPair, CommType>& types) {
  std::vector<CommType> flow_types;
  flow_types.reserve(trace.size());
  for (const FlowRecord& f : trace) {
    const auto it = types.find(f.pair());
    flow_types.push_back(it != types.end() ? it->second : CommType::kPP);
  }
  const FlowColumns columns(trace);
  return reconstructor.reconstruct_all(columns.view(), flow_types);
}

/// One GPU's timeline; empty (with `gpu` set) when no flow touches it.
inline GpuTimeline reconstruct(
    const TimelineReconstructor& reconstructor, GpuId gpu,
    const FlowTrace& trace,
    const std::unordered_map<GpuPair, CommType>& types) {
  for (GpuTimeline& timeline : reconstruct_all(reconstructor, trace, types)) {
    if (timeline.gpu == gpu) return std::move(timeline);
  }
  GpuTimeline empty;
  empty.gpu = gpu;
  return empty;
}

}  // namespace llmprism
