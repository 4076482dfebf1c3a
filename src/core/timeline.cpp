#include "llmprism/core/timeline.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <type_traits>
#include <unordered_map>

#include "llmprism/common/thread_pool.hpp"

namespace llmprism {

namespace {

/// Classify row i from `gpu`'s perspective, its pair's type known.
TimelineEvent make_event(const FlowView& v, std::size_t i, std::uint32_t gpu,
                         CommType type) {
  TimelineEvent e;
  e.start = v.start_ns[i];
  e.end = v.start_ns[i] + v.duration_ns[i];
  const bool is_src = v.src[i] == gpu;
  e.peer = GpuId(is_src ? v.dst[i] : v.src[i]);
  if (type == CommType::kDP) {
    e.kind = TimelineEventKind::kDp;
  } else {
    e.kind = is_src ? TimelineEventKind::kPpSend : TimelineEventKind::kPpRecv;
  }
  return e;
}

/// One GPU's share of a carry-aware reconstruction: its (pre-resolved)
/// per-GPU carry entry and private copies of the TimelineCarry call
/// counters. Pre-resolving the map entry and privatizing the counters is
/// what lets assemble() calls for different GPUs run concurrently — no
/// task inserts into `carry->per_gpu` or bumps a shared counter; the
/// caller folds the slots in GPU order.
struct CarrySlot {
  GpuStepCarry* carry = nullptr;
  std::uint64_t steps_held = 0;
  std::uint64_t steps_carried_in = 0;
};

/// Build the timeline of one GPU from its comm events, a slice of the
/// caller's buffer that is sorted in place (and only when out of order).
/// With a carry context (`ctx` non-null and `slot->carry` set), held-back
/// DP events from the previous window are merged in through a local copy,
/// step 0 begins at the carried previous step end, and a trailing
/// near-boundary burst is held back instead of emitted; the null-context
/// path is the cold behavior, bit for bit.
GpuTimeline assemble(GpuId gpu, std::span<TimelineEvent> comm_events,
                     const TimelineConfig& config,
                     SegmenterStats* segmenter_stats = nullptr,
                     const TimelineCarryContext* ctx = nullptr,
                     CarrySlot* slot = nullptr) {
  GpuTimeline timeline;
  timeline.gpu = gpu;

  GpuStepCarry* carry = nullptr;
  std::vector<TimelineEvent> merged;
  if (ctx != nullptr && slot != nullptr && slot->carry != nullptr) {
    carry = slot->carry;
    if (!carry->held_events.empty()) {
      ++slot->steps_carried_in;
      merged.reserve(comm_events.size() + carry->held_events.size());
      merged.assign(comm_events.begin(), comm_events.end());
      merged.insert(merged.end(), carry->held_events.begin(),
                    carry->held_events.end());
      carry->held_events.clear();
      comm_events = merged;
    }
  }

  const auto by_start_then_end = [](const TimelineEvent& a,
                                    const TimelineEvent& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.end < b.end;
  };
  if (!std::is_sorted(comm_events.begin(), comm_events.end(),
                      by_start_then_end)) {
    std::sort(comm_events.begin(), comm_events.end(), by_start_then_end);
  }

  // ---- step boundaries from DP bursts ----
  std::vector<TimeNs> dp_starts;
  std::vector<std::size_t> dp_event_idx;
  dp_starts.reserve(comm_events.size());
  dp_event_idx.reserve(comm_events.size());
  for (std::size_t i = 0; i < comm_events.size(); ++i) {
    if (comm_events[i].kind == TimelineEventKind::kDp) {
      dp_starts.push_back(comm_events[i].start);
      dp_event_idx.push_back(i);
    }
  }

  std::vector<bool> held(comm_events.size(), false);
  bool any_held = false;
  if (!dp_starts.empty()) {
    const auto burst_starts =
        segment_by_gaps(dp_starts, config.segmenter, segmenter_stats);

    // Provisional tail: the last burst is held back (not emitted as a
    // step) when it ends within boundary_hold of the window end — it may
    // continue in the next window, and emitting it now would truncate the
    // straddling step.
    std::size_t hold_from = burst_starts.size();  // index of the held burst
    if (carry != nullptr && ctx->hold_tail) {
      const std::size_t last_begin = burst_starts.back();
      TimeNs tail_dp_end = dp_starts[last_begin];
      for (std::size_t i = last_begin; i < dp_starts.size(); ++i) {
        tail_dp_end = std::max(tail_dp_end, comm_events[dp_event_idx[i]].end);
      }
      if (ctx->window_end - tail_dp_end < ctx->boundary_hold) {
        hold_from = burst_starts.size() - 1;
      }
    }

    TimeNs prev_end = (carry != nullptr && carry->has_prev_step)
                          ? carry->prev_step_end
                          : (comm_events.empty() ? 0
                                                 : comm_events.front().start);
    for (std::size_t b = 0; b < burst_starts.size(); ++b) {
      const std::size_t seg_begin = burst_starts[b];
      const std::size_t seg_end = b + 1 < burst_starts.size()
                                      ? burst_starts[b + 1]
                                      : dp_starts.size();
      if (b >= hold_from) {
        // Move the burst's DP events into the carry; they are re-observed
        // (and the step emitted) by the next window's segmentation.
        for (std::size_t i = seg_begin; i < seg_end; ++i) {
          carry->held_events.push_back(comm_events[dp_event_idx[i]]);
          held[dp_event_idx[i]] = true;
          any_held = true;
        }
        ++slot->steps_held;
        continue;
      }
      ReconstructedStep step;
      step.index = timeline.steps.size();
      step.begin = prev_end;
      step.dp_begin = dp_starts[seg_begin];
      step.dp_end = step.dp_begin;
      for (std::size_t i = seg_begin; i < seg_end; ++i) {
        step.dp_end = std::max(step.dp_end, comm_events[dp_event_idx[i]].end);
      }
      step.end = step.dp_end;
      prev_end = step.end;
      timeline.steps.push_back(step);
    }
  }
  if (carry != nullptr && !timeline.steps.empty()) {
    carry->prev_step_end = timeline.steps.back().end;
    carry->has_prev_step = true;
  }

  // ---- fill compute gaps between communication events ----
  timeline.events.reserve(comm_events.size() * 2);
  TimeNs busy_until = 0;
  bool busy_set = false;
  for (std::size_t i = 0; i < comm_events.size(); ++i) {
    if (any_held && held[i]) continue;
    const TimelineEvent& e = comm_events[i];
    if (!busy_set) {
      busy_until = e.start;
      busy_set = true;
    }
    if (e.start - busy_until >= config.min_compute_gap) {
      TimelineEvent gap;
      gap.kind = TimelineEventKind::kCompute;
      gap.start = busy_until;
      gap.end = e.start;
      timeline.events.push_back(gap);
    }
    timeline.events.push_back(e);
    busy_until = std::max(busy_until, e.end);
  }
  return timeline;
}

/// Fan the per-GPU assembly across `pool` (ascending `gpu_ids` order is
/// the output order). Each GPU owns output slot k and private telemetry;
/// carry map entries are resolved sequentially up front so no task touches
/// `ctx->carry->per_gpu` (inserts could rehash under a concurrent reader).
/// Counter folds run in GPU order — integer event counts, so the totals
/// match the sequential loop exactly.
std::vector<GpuTimeline> assemble_all(
    std::span<const std::uint32_t> gpu_ids,
    const std::function<std::span<TimelineEvent>(std::uint32_t)>& events_of,
    const TimelineConfig& config, SegmenterStats* segmenter_stats,
    const TimelineCarryContext* ctx, ThreadPool* pool) {
  const std::size_t n = gpu_ids.size();
  std::vector<CarrySlot> slots(n);
  if (ctx != nullptr && ctx->carry != nullptr) {
    for (std::size_t k = 0; k < n; ++k) {
      slots[k].carry = &ctx->carry->per_gpu[GpuId(gpu_ids[k])];
    }
  }
  std::vector<SegmenterStats> slot_stats(n);
  std::vector<GpuTimeline> out(n);
  parallel_for(pool, n, [&](std::size_t k) {
    out[k] = assemble(GpuId(gpu_ids[k]), events_of(gpu_ids[k]), config,
                      &slot_stats[k], ctx, &slots[k]);
  });
  for (std::size_t k = 0; k < n; ++k) {
    if (segmenter_stats != nullptr) *segmenter_stats += slot_stats[k];
    if (ctx != nullptr && ctx->carry != nullptr) {
      ctx->carry->steps_held += slots[k].steps_held;
      ctx->carry->steps_carried_in += slots[k].steps_carried_in;
    }
  }
  return out;
}

}  // namespace

TimelineReconstructor::TimelineReconstructor(TimelineConfig config)
    : config_(config) {}

std::vector<GpuTimeline> TimelineReconstructor::reconstruct_all(
    const FlowView& view, std::span<const CommType> flow_types,
    SegmenterStats* segmenter_stats, const TimelineCarryContext& ctx,
    ThreadPool* pool) const {
  if (ctx.carry != nullptr) {
    ctx.carry->steps_held = 0;
    ctx.carry->steps_carried_in = 0;
  }
  const std::size_t n = view.size();
  const TimelineCarryContext* carry_ctx =
      ctx.carry != nullptr ? &ctx : nullptr;

  // GPUs that must get a timeline even with no flow this window: a held
  // carried burst would otherwise be dropped (flush after a quiet window
  // must still emit the carried step).
  std::vector<std::uint32_t> carry_gpus;
  if (ctx.carry != nullptr) {
    for (const auto& [gpu, state] : ctx.carry->per_gpu) {
      if (!state.held_events.empty()) carry_gpus.push_back(gpu.value());
    }
    std::sort(carry_gpus.begin(), carry_gpus.end());
  }

  if (n == 0 && carry_gpus.empty()) return {};

  // Dense counting gather over row chunks: per chunk a max-GPU scan and
  // per-GPU event counts over the src/dst columns, one prefix over (GPU,
  // chunk), a scatter per chunk. Chunk c's events of a GPU land after
  // every earlier chunk's, so flow order is preserved per GPU and a
  // time-sorted view yields slices assemble() rarely has to sort; each
  // task works on its own slice in place. Falls back to hash bucketing
  // only if the id space is wildly sparse relative to the window (never
  // for cluster-dense ids); a chunk that alone spans too many ids proves
  // that and skips its counts.
  const std::size_t dense_limit = 8 * (2 * n + carry_gpus.size()) + 1024;
  const std::vector<std::size_t> rows = row_chunks(n, pool);
  const std::size_t chunks = rows.size() - 1;
  std::vector<std::uint32_t> chunk_max(chunks, 0);
  std::vector<std::vector<std::size_t>> counts(chunks);
  parallel_for(pool, chunks, [&](std::size_t c) {
    std::uint32_t max_gpu = 0;
    for (std::size_t i = rows[c]; i < rows[c + 1]; ++i) {
      max_gpu = std::max({max_gpu, view.src[i], view.dst[i]});
    }
    chunk_max[c] = max_gpu;
    if (std::size_t{max_gpu} + 1 > dense_limit) return;
    std::vector<std::size_t>& count = counts[c];
    count.assign(std::size_t{max_gpu} + 1, 0);
    for (std::size_t i = rows[c]; i < rows[c + 1]; ++i) {
      ++count[view.src[i]];
      ++count[view.dst[i]];
    }
  });
  std::uint32_t max_gpu = 0;
  for (const std::uint32_t m : chunk_max) max_gpu = std::max(max_gpu, m);
  for (const std::uint32_t g : carry_gpus) max_gpu = std::max(max_gpu, g);

  const std::size_t span_size = static_cast<std::size_t>(max_gpu) + 1;
  if (span_size <= dense_limit) {
    const std::vector<std::size_t> begin =
        chunk_key_prefix(counts, span_size, pool);
    // Every slot is constructed exactly once by the scatter, so nothing
    // is value-initialized up front: the pool tasks first-touch the pages
    // they fill.
    struct Deallocate {
      std::size_t size;
      void operator()(TimelineEvent* p) const {
        std::allocator<TimelineEvent>{}.deallocate(p, size);
      }
    };
    static_assert(std::is_trivially_destructible_v<TimelineEvent>);
    const std::unique_ptr<TimelineEvent[], Deallocate> flat(
        std::allocator<TimelineEvent>{}.allocate(2 * n), Deallocate{2 * n});
    parallel_for(pool, chunks, [&](std::size_t c) {
      std::size_t* const cursor = counts[c].data();
      for (std::size_t i = rows[c]; i < rows[c + 1]; ++i) {
        std::construct_at(&flat[cursor[view.src[i]]++],
                          make_event(view, i, view.src[i], flow_types[i]));
        std::construct_at(&flat[cursor[view.dst[i]]++],
                          make_event(view, i, view.dst[i], flow_types[i]));
      }
    });
    std::vector<std::uint8_t> present(span_size, 0);
    for (const std::uint32_t g : carry_gpus) present[g] = 1;
    std::vector<std::uint32_t> gpu_ids;
    for (std::size_t g = 0; g < span_size; ++g) {
      if (present[g] != 0 || begin[g + 1] != begin[g]) {
        gpu_ids.push_back(static_cast<std::uint32_t>(g));
      }
    }
    const std::span<TimelineEvent> events(flat.get(), 2 * n);
    return assemble_all(
        gpu_ids,
        [&](std::uint32_t g) {
          return events.subspan(begin[g], begin[g + 1] - begin[g]);
        },
        config_, segmenter_stats, carry_ctx, pool);
  }

  std::unordered_map<GpuId, std::vector<TimelineEvent>> per_gpu;
  for (const std::uint32_t g : carry_gpus) per_gpu.try_emplace(GpuId(g));
  for (std::size_t i = 0; i < n; ++i) {
    per_gpu[GpuId(view.src[i])].push_back(
        make_event(view, i, view.src[i], flow_types[i]));
    per_gpu[GpuId(view.dst[i])].push_back(
        make_event(view, i, view.dst[i], flow_types[i]));
  }
  std::vector<std::uint32_t> gpus;
  gpus.reserve(per_gpu.size());
  for (const auto& [gpu, events] : per_gpu) gpus.push_back(gpu.value());
  std::sort(gpus.begin(), gpus.end());

  // Every key already exists, so the concurrent find() calls below never
  // mutate the map; each task sorts only its own GPU's vector.
  return assemble_all(
      gpus,
      [&](std::uint32_t g) {
        return std::span<TimelineEvent>(per_gpu.find(GpuId(g))->second);
      },
      config_, segmenter_stats, carry_ctx, pool);
}

}  // namespace llmprism
