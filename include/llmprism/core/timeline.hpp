// Per-GPU training-timeline reconstruction (paper §IV-C).
//
// Key temporal invariant: *every training step concludes with a burst of DP
// collective traffic*. Per GPU, BOCD over the intervals between its DP
// flows partitions DP traffic into per-step bursts; the end of each burst
// marks the end of a training step. PP flows are then interleaved
// chronologically and the gaps between communication events are attributed
// to compute, yielding the Fig. 4-style per-rank timeline.
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "llmprism/bocd/bocd.hpp"
#include "llmprism/common/comm_type.hpp"
#include "llmprism/common/ids.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

class ThreadPool;

enum class TimelineEventKind : std::uint8_t {
  kPpSend,   ///< this GPU sent a pipeline activation/gradient
  kPpRecv,   ///< this GPU received one
  kDp,       ///< data-parallel collective flow (either direction)
  kCompute,  ///< inferred compute: gap between communication events
};

[[nodiscard]] constexpr std::string_view to_string(TimelineEventKind k) {
  switch (k) {
    case TimelineEventKind::kPpSend: return "pp_send";
    case TimelineEventKind::kPpRecv: return "pp_recv";
    case TimelineEventKind::kDp: return "dp";
    case TimelineEventKind::kCompute: return "compute";
  }
  return "?";
}

struct TimelineEvent {
  TimelineEventKind kind{};
  TimeNs start = 0;
  TimeNs end = 0;
  GpuId peer;  ///< other endpoint (invalid for compute events)

  [[nodiscard]] DurationNs duration() const { return end - start; }
};

/// One reconstructed training step of one GPU. Steps span from the end of
/// the previous step's DP burst to the end of this step's DP burst.
struct ReconstructedStep {
  std::size_t index = 0;
  TimeNs begin = 0;     ///< end of previous DP burst (trace start for step 0)
  TimeNs end = 0;       ///< end of this step's DP burst
  TimeNs dp_begin = 0;  ///< first DP flow of the step
  TimeNs dp_end = 0;    ///< last DP flow end of the step (== end)

  [[nodiscard]] DurationNs duration() const { return end - begin; }
  [[nodiscard]] DurationNs dp_duration() const { return dp_end - dp_begin; }
};

struct GpuTimeline {
  GpuId gpu;
  std::vector<TimelineEvent> events;      ///< chronological, compute-filled
  std::vector<ReconstructedStep> steps;   ///< chronological
};

/// The reconstructor has no settings (see PrismConfig for why the empty
/// struct is kept).
struct TimelineConfig {};

/// Gaps between communication events shorter than this are not reported as
/// compute (they are launch latency).
inline constexpr DurationNs kMinComputeGap = 1 * kMillisecond;

/// A trailing DP burst ending within this of the window end is held back
/// (it may continue in the next window). A burst genuinely cut by the
/// boundary has events ending at — usually past — the window end, so this
/// only needs to cover intra-burst event gaps; a generous value holds (and
/// re-processes) complete bursts that merely finished near the boundary.
inline constexpr DurationNs kBoundaryHold = 50 * kMillisecond;

/// Cross-window carry of one GPU's step structure (the session warm path).
struct GpuStepCarry {
  /// DP comm events of the previous window's trailing provisional burst,
  /// held back because the burst ended too close to the window boundary to
  /// be a complete step. Prepended to the next window's events, so the
  /// straddling step is re-segmented with both halves visible.
  std::vector<TimelineEvent> held_events;
  /// End of the last complete step emitted for this GPU; seeds the next
  /// window's step-0 begin (the cold path has to fall back to the window's
  /// first event).
  TimeNs prev_step_end = 0;
  bool has_prev_step = false;
};

/// Per-job carry across windows, keyed by GPU.
struct TimelineCarry {
  std::unordered_map<GpuId, GpuStepCarry> per_gpu;
  /// Per-call outcome (reset by each carry-aware reconstruct_all call).
  std::uint64_t steps_held = 0;        ///< trailing bursts held back
  std::uint64_t steps_carried_in = 0;  ///< held bursts consumed this window
};

/// Window geometry for one carry-aware reconstruction call.
struct TimelineCarryContext {
  TimelineCarry* carry = nullptr;  ///< null = cold (no carry)
  /// End of the analysis window the trace was sliced from.
  TimeNs window_end = 0;
  /// Hold back a trailing DP burst that ends within kBoundaryHold of
  /// window_end (set for every window except the final flush, whose tail
  /// is genuinely the end of the feed).
  bool hold_tail = false;
};

class TimelineReconstructor {
 public:
  explicit TimelineReconstructor(TimelineConfig = {}) {}

  /// Reconstruct every GPU that appears in `view` (one job's flows), given
  /// the per-flow types precomputed by CommTypeIdentifier::identify over
  /// the shared pair index (one CommType per row; `flow_types.size()` must
  /// equal `view.size()`). The event scan reads the SoA columns directly
  /// and buckets per GPU with a dense counting gather (counts + prefix sum
  /// + scatter); timelines come back in ascending GPU order. When
  /// `segmenter_stats` is non-null, the DP-burst segmentation's BOCD work
  /// counters are accumulated into it (deterministic event counts — see
  /// PrismReport::telemetry).
  ///
  /// Carry-aware (the session warm path): held-back DP bursts from
  /// `ctx.carry` are prepended to their GPU's events before segmentation,
  /// step 0 begins at the carried previous step end, and a trailing burst
  /// ending within kBoundaryHold of `ctx.window_end` is held back
  /// into the carry instead of being emitted as a (truncated) step.
  /// `ctx.carry == nullptr` is the cold path.
  ///
  /// When `pool` is non-null the per-GPU assembly (sort, BOCD burst
  /// segmentation, compute-gap fill) fans out across it. Each GPU owns a
  /// pre-sized output slot and private telemetry counters (folded in GPU
  /// order), and carry map entries are resolved sequentially before the
  /// fan-out, so the result is bit-identical at any thread count.
  [[nodiscard]] std::vector<GpuTimeline> reconstruct_all(
      const FlowView& view, std::span<const CommType> flow_types,
      SegmenterStats* segmenter_stats = nullptr,
      const TimelineCarryContext& ctx = {}, ThreadPool* pool = nullptr) const;
};

}  // namespace llmprism
