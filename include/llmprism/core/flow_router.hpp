// Flow routing: attribute every flow of a cluster trace to the recognized
// job that owns its endpoints.
//
// GPU ids are dense (see topology), so the routing table is a flat
// vector indexed by GPU id — one load per lookup instead of a hash probe
// per flow. Routing preserves the trace's order within each job, even
// when its chunks run in parallel, which is what lets the per-job
// pipeline skip re-sorting: a sorted input yields per-job columns that
// are born sorted (and their `sorted` flag knows it).
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

#include "llmprism/common/comm_type.hpp"
#include "llmprism/core/job_recognition.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

class ThreadPool;

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
    /// Per input row, the job it was routed to
    /// (`static_cast<std::uint32_t>(kUnattributed)` when unattributed).
    /// Row i is position k of job_columns[job_of_flow[i]] exactly when k
    /// earlier rows went to the same job.
    std::vector<std::uint32_t> job_of_flow;
    std::uint64_t flows_routed = 0;
    /// Of flows_routed: flows whose src was unattributed and that were
    /// recovered through the dst lookup.
    std::uint64_t flows_routed_via_dst = 0;
    std::uint64_t flows_unattributed = 0;
    /// The routing chunk plan (see row_chunks): chunk c covers input rows
    /// [chunk_rows[c], chunk_rows[c + 1]), and its first row routed to job
    /// j is position chunk_job_start[c * num_jobs + j] of that job.
    std::vector<std::size_t> chunk_rows;
    std::vector<std::size_t> chunk_job_start;

    /// Per input row, 1 when the row's job position has type `type`
    /// (`job_types[j][k]` is the type of position k of job_columns[j]),
    /// else 0; one pass per routing chunk on `pool`. The marked rows of a
    /// sorted view, in input order, equal the job-id-order
    /// merge_sorted_runs of the per-job runs of that type: rows with equal
    /// sort keys share src and dst, hence a job, so the merge never breaks
    /// a tie across jobs.
    [[nodiscard]] std::vector<std::uint8_t> type_mask(
        std::span<const std::vector<CommType>> job_types, CommType type,
        ThreadPool* pool = nullptr) const;
  };

  /// Route every flow of `view` to its job without materializing a
  /// FlowRecord: the rows are split into row_chunks(view.size(), pool);
  /// each chunk counts its rows and hops per job, a prefix sum over
  /// (chunk, job) gives every chunk its write offsets, and each chunk
  /// scatters its rows into exactly-sized job columns. A null pool runs
  /// one chunk in order; the result is the same at every lane count.
  [[nodiscard]] ColumnarResult route(const FlowView& view,
                                     ThreadPool* pool = nullptr) const;

  [[nodiscard]] std::size_t num_jobs() const { return num_jobs_; }

 private:
  /// kUnattributed narrowed to a ColumnarResult::job_of_flow entry.
  static constexpr auto kNoJob = static_cast<std::uint32_t>(kUnattributed);

  std::size_t num_jobs_ = 0;
  /// Dense GPU id -> job index (kUnattributed when unowned).
  std::vector<std::size_t> job_of_gpu_;
};

}  // namespace llmprism
