#include "llmprism/core/flow_router.hpp"

#include <algorithm>

namespace llmprism {

FlowRouter::FlowRouter(std::span<const RecognizedJob> jobs)
    : num_jobs_(jobs.size()) {
  std::uint32_t max_gpu = 0;
  bool any = false;
  for (const RecognizedJob& job : jobs) {
    for (const GpuId g : job.gpus) {
      max_gpu = std::max(max_gpu, g.value());
      any = true;
    }
  }
  if (!any) return;
  job_of_gpu_.assign(static_cast<std::size_t>(max_gpu) + 1, kUnattributed);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const GpuId g : jobs[j].gpus) {
      std::size_t& slot = job_of_gpu_[g.value()];
      if (slot == kUnattributed) slot = j;
    }
  }
}

FlowRouter::ColumnarResult FlowRouter::route(const FlowView& view) const {
  ColumnarResult result;
  result.job_columns.resize(num_jobs_);
  const std::size_t n = view.size();

  // Pass 1: resolve each row's job once (src, dst fallback), counting rows
  // and switch hops per job so pass 2 gathers into exactly-sized columns.
  std::vector<std::uint32_t> job_of_flow(n);
  std::vector<std::size_t> rows_per_job(num_jobs_, 0);
  std::vector<std::size_t> hops_per_job(num_jobs_, 0);
  constexpr std::uint32_t kNone = 0xffffffffu;
  const bool have_hops = !view.switch_offsets.empty();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t j = job_of(GpuId(view.src[i]));
    bool via_dst = false;
    if (j == kUnattributed) {
      j = job_of(GpuId(view.dst[i]));
      via_dst = j != kUnattributed;
    }
    if (j == kUnattributed) {
      job_of_flow[i] = kNone;
      ++result.flows_unattributed;
      continue;
    }
    job_of_flow[i] = static_cast<std::uint32_t>(j);
    ++rows_per_job[j];
    if (have_hops) {
      hops_per_job[j] += view.switch_offsets[i + 1] - view.switch_offsets[i];
    }
    ++result.flows_routed;
    if (via_dst) ++result.flows_routed_via_dst;
  }

  // Pass 2: ordered gather. Input order is preserved within each job, so a
  // sorted view yields born-sorted per-job columns.
  for (std::size_t j = 0; j < num_jobs_; ++j) {
    result.job_columns[j].reserve(rows_per_job[j], hops_per_job[j]);
    result.job_columns[j].switch_offsets.push_back(0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (job_of_flow[i] == kNone) continue;
    result.job_columns[job_of_flow[i]].append_row(view, i);
  }
  for (FlowColumns& cols : result.job_columns) {
    cols.sorted = view.sorted || cols.view().verify_sorted();
  }
  return result;
}

}  // namespace llmprism
