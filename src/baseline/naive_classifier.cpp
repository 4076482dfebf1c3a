#include "llmprism/baseline/naive_classifier.hpp"

#include <utility>
#include <vector>

#include "llmprism/core/comm_type.hpp"

namespace llmprism {

std::unordered_map<GpuPair, CommType> classify_by_global_distinct_sizes(
    const FlowView& job_trace) {
  std::unordered_map<GpuPair, std::vector<std::uint64_t>> sizes;
  for (std::size_t i = 0; i < job_trace.size(); ++i) {
    sizes[job_trace.pair(i)].push_back(job_trace.bytes[i]);
  }

  const CommTypeIdentifier identifier;
  std::unordered_map<GpuPair, CommType> out;
  out.reserve(sizes.size());
  for (auto& [pair, s] : sizes) {
    out.emplace(pair, identifier.count_distinct_sizes(std::move(s)) > 1
                          ? CommType::kDP
                          : CommType::kPP);
  }
  return out;
}

std::unordered_map<GpuPair, CommType> classify_by_volume_threshold(
    const FlowView& job_trace, const VolumeThresholdConfig& config) {
  struct Acc {
    std::uint64_t bytes = 0;
    std::size_t count = 0;
  };
  std::unordered_map<GpuPair, Acc> acc;
  for (std::size_t i = 0; i < job_trace.size(); ++i) {
    Acc& a = acc[job_trace.pair(i)];
    a.bytes += job_trace.bytes[i];
    ++a.count;
  }
  std::unordered_map<GpuPair, CommType> out;
  out.reserve(acc.size());
  for (const auto& [pair, a] : acc) {
    const std::uint64_t mean = a.bytes / a.count;
    out.emplace(pair, mean > config.dp_threshold_bytes ? CommType::kDP
                                                       : CommType::kPP);
  }
  return out;
}

}  // namespace llmprism
