#include "llmprism/core/flow_router.hpp"

#include <algorithm>

#include "llmprism/common/thread_pool.hpp"

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

FlowRouter::ColumnarResult FlowRouter::route(const FlowView& view,
                                             ThreadPool* pool) const {
  ColumnarResult result;
  const std::size_t n = view.size();
  const std::size_t jobs = num_jobs_;
  result.job_columns.resize(jobs);
  result.job_of_flow.resize(n);
  result.chunk_rows = row_chunks(n, pool);
  const std::size_t chunks = result.chunk_rows.size() - 1;
  const bool have_hops = !view.switch_offsets.empty();

  // Pass 1, per chunk: resolve each row's job once (src, dst fallback),
  // counting the chunk's rows and switch hops per job.
  struct ChunkTotals {
    std::uint64_t routed = 0;
    std::uint64_t routed_via_dst = 0;
    std::uint64_t unattributed = 0;
  };
  std::vector<std::vector<std::size_t>> row_counts(chunks);
  std::vector<std::vector<std::size_t>> hop_counts(chunks);
  std::vector<ChunkTotals> totals(chunks);
  parallel_for(pool, chunks, [&](std::size_t c) {
    std::vector<std::size_t>& rows = row_counts[c];
    std::vector<std::size_t>& hops = hop_counts[c];
    ChunkTotals& ct = totals[c];
    rows.assign(jobs, 0);
    hops.assign(jobs, 0);
    for (std::size_t i = result.chunk_rows[c]; i < result.chunk_rows[c + 1];
         ++i) {
      std::size_t j = job_of(GpuId(view.src[i]));
      bool via_dst = false;
      if (j == kUnattributed) {
        j = job_of(GpuId(view.dst[i]));
        via_dst = j != kUnattributed;
      }
      if (j == kUnattributed) {
        result.job_of_flow[i] = kNoJob;
        ++ct.unattributed;
        continue;
      }
      result.job_of_flow[i] = static_cast<std::uint32_t>(j);
      ++rows[j];
      if (have_hops) {
        hops[j] += view.switch_offsets[i + 1] - view.switch_offsets[i];
      }
      ++ct.routed;
      if (via_dst) ++ct.routed_via_dst;
    }
  });
  for (const ChunkTotals& ct : totals) {
    result.flows_routed += ct.routed;
    result.flows_routed_via_dst += ct.routed_via_dst;
    result.flows_unattributed += ct.unattributed;
  }

  // Prefix over (job, chunk): chunk c writes job j's rows after every
  // earlier chunk's, so input order is preserved within each job. Each
  // job has columns of its own, so the offsets are taken relative to the
  // job's first row and hop.
  const std::vector<std::size_t> row_begin =
      chunk_key_prefix(row_counts, jobs, pool);
  const std::vector<std::size_t> hop_begin =
      chunk_key_prefix(hop_counts, jobs, pool);
  result.chunk_job_start.resize(chunks * jobs);
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t j = 0; j < jobs; ++j) {
      result.chunk_job_start[c * jobs + j] = row_counts[c][j] - row_begin[j];
      hop_counts[c][j] -= hop_begin[j];
    }
  }
  const auto rows_of = [&](std::size_t j) {
    return row_begin[j + 1] - row_begin[j];
  };
  const auto hops_of = [&](std::size_t j) {
    return hop_begin[j + 1] - hop_begin[j];
  };
  // Pass 2: place the rows. A lone chunk appends them in input order to
  // reserved columns, sparing the zero fill that sizing for a scatter
  // costs; several chunks each scatter into the pre-sized job columns.
  if (chunks == 1) {
    for (std::size_t j = 0; j < jobs; ++j) {
      result.job_columns[j].reserve(rows_of(j), hops_of(j));
      result.job_columns[j].switch_offsets.push_back(0);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t j = result.job_of_flow[i];
      if (j != kNoJob) result.job_columns[j].append_row(view, i);
    }
  } else {
    parallel_for(pool, jobs, [&](std::size_t j) {
      result.job_columns[j].resize(rows_of(j), hops_of(j));
    });
    parallel_for(pool, chunks, [&](std::size_t c) {
      std::vector<std::size_t> row_cursor(
          result.chunk_job_start.begin() +
              static_cast<std::ptrdiff_t>(c * jobs),
          result.chunk_job_start.begin() +
              static_cast<std::ptrdiff_t>((c + 1) * jobs));
      std::vector<std::size_t>& hop_cursor = hop_counts[c];
      for (std::size_t i = result.chunk_rows[c]; i < result.chunk_rows[c + 1];
           ++i) {
        const std::uint32_t j = result.job_of_flow[i];
        if (j == kNoJob) continue;
        FlowColumns& cols = result.job_columns[j];
        const std::size_t k = row_cursor[j]++;
        cols.start_ns[k] = view.start_ns[i];
        cols.src[k] = view.src[i];
        cols.dst[k] = view.dst[i];
        cols.bytes[k] = view.bytes[i];
        cols.duration_ns[k] = view.duration_ns[i];
        if (have_hops) {
          const std::span<const std::uint32_t> hops = view.switches(i);
          std::copy(hops.begin(), hops.end(),
                    cols.switch_ids.begin() +
                        static_cast<std::ptrdiff_t>(hop_cursor[j]));
          hop_cursor[j] += hops.size();
          cols.switch_offsets[k + 1] = hop_cursor[j];
        }
      }
    });
  }
  for (FlowColumns& cols : result.job_columns) {
    cols.sorted = view.sorted || cols.view().verify_sorted();
  }
  return result;
}

std::vector<std::uint8_t> FlowRouter::ColumnarResult::type_mask(
    std::span<const std::vector<CommType>> job_types, CommType type,
    ThreadPool* pool) const {
  // Chunk c's first row of job j is position chunk_job_start[c][j] of that
  // job, and each later row of job j in the chunk is the next position.
  const std::size_t jobs = job_types.size();
  std::vector<std::uint8_t> mask(job_of_flow.size(), 0);
  parallel_for(pool, chunk_rows.size() - 1, [&](std::size_t c) {
    std::vector<std::size_t> cursor(
        chunk_job_start.begin() + static_cast<std::ptrdiff_t>(c * jobs),
        chunk_job_start.begin() + static_cast<std::ptrdiff_t>((c + 1) * jobs));
    for (std::size_t i = chunk_rows[c]; i < chunk_rows[c + 1]; ++i) {
      const std::uint32_t j = job_of_flow[i];
      if (j == kNoJob) continue;
      mask[i] = job_types[j][cursor[j]++] == type ? 1 : 0;
    }
  });
  return mask;
}

}  // namespace llmprism
