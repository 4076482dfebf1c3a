// Flow routing: attribute every flow of a cluster trace to the recognized
// job that owns its endpoints.
//
// GPU ids are dense (see topology), so the routing table is a flat
// vector indexed by GPU id — one load per lookup instead of a hash probe
// per flow. Routing scans the trace once and preserves its order, which
// is what lets the per-job pipeline skip re-sorting: a sorted input
// yields per-job columns that are born sorted (and their `sorted` flag
// knows it).
//
// A flow is routed by its src GPU; when the src is unattributed (e.g. a
// half-recognized job, or a recognizer that excluded the src) the dst is
// tried before declaring the flow unattributed — a src-only lookup would
// silently drop flows whose dst a recognized job owns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "llmprism/core/job_recognition.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

class FlowRouter {
 public:
  /// No job owns the GPU.
  static constexpr std::size_t kUnattributed = SIZE_MAX;

  /// Intern the jobs' GPU sets into the dense table. When two jobs claim
  /// one GPU (the recognizer never produces this), the lower job index
  /// wins.
  explicit FlowRouter(std::span<const RecognizedJob> jobs);

  /// Job index owning `gpu`, or kUnattributed.
  [[nodiscard]] std::size_t job_of(GpuId gpu) const {
    const std::size_t g = static_cast<std::size_t>(gpu.value());
    return g < job_of_gpu_.size() ? job_of_gpu_[g] : kUnattributed;
  }

  struct ColumnarResult {
    /// Per-job columns, input order preserved within each job (born sorted
    /// when the input view is sorted — a subsequence of a sorted sequence).
    std::vector<FlowColumns> job_columns;
    std::uint64_t flows_routed = 0;
    /// Of flows_routed: flows whose src was unattributed and that were
    /// recovered through the dst lookup.
    std::uint64_t flows_routed_via_dst = 0;
    std::uint64_t flows_unattributed = 0;
  };

  /// Route every flow of `view` to its job: two passes over the src/dst
  /// columns (count per job, prefix-size the targets, then gather) without
  /// ever materializing a FlowRecord.
  [[nodiscard]] ColumnarResult route(const FlowView& view) const;

  [[nodiscard]] std::size_t num_jobs() const { return num_jobs_; }

 private:
  std::size_t num_jobs_ = 0;
  /// Dense GPU id -> job index (kUnattributed when unowned).
  std::vector<std::size_t> job_of_gpu_;
};

}  // namespace llmprism
