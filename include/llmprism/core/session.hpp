// Incremental cross-window analysis state (the session warm path).
//
// The paper's deployment mode is continuous monitoring: the same jobs
// occupy the same machines for hours while the pipeline re-derives the
// same facts window after window. PrismSession carries, per stable job:
//   (a) the previous recognition partition + dense FlowRouter table,
//       reused verbatim when the window's communication pair set is
//       EXACTLY the cached one (recognize() is a pure function of the
//       undirected edge set, so equality of pair sets implies equality of
//       the partition — a verify-fast-path, never a guess);
//   (b) comm-type pair classifications as warm priors (CommTypeCarry) —
//       only new or contradicting pairs re-run the BOCD step division;
//   (c) the timeline segmenter's provisional tail (TimelineCarry): a DP
//       burst ending near the window boundary is held back and re-observed
//       by the next window, so a step straddling the boundary is
//       reconstructed instead of truncated;
//   (d) cross-window EWMA step-duration baselines (EwmaBaseline), so
//       cross-step alerts can fire on windows too short for the
//       window-local k-sigma rule.
//
// Threading contract: a session is NOT thread-safe across analyze() calls
// — the OnlineMonitor analyzes warm windows sequentially in time order.
// WITHIN one analyze() call the per-job fan-out still runs in parallel;
// each task touches only its own job's SessionJobState, and outcome
// counters are folded into SessionCounters in job-id order afterwards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "llmprism/common/ids.hpp"
#include "llmprism/common/time.hpp"
#include "llmprism/core/comm_type.hpp"
#include "llmprism/core/diagnosis.hpp"
#include "llmprism/core/flow_router.hpp"
#include "llmprism/core/job_recognition.hpp"
#include "llmprism/core/timeline.hpp"

namespace llmprism {

/// Hash of a job's machine set, used to key per-job state (and the
/// monitor's stable-id lookups) directly on the `RecognizedJob::machines`
/// vector — no per-lookup string building. SplitMix64-style per-element
/// mix; order-sensitive, matching the recognizer's canonical ascending
/// machine order.
struct MachineSetHash {
  [[nodiscard]] std::size_t operator()(
      const std::vector<MachineId>& machines) const noexcept {
    std::uint64_t h = machines.size();
    for (const MachineId m : machines) {
      std::uint64_t z = h + m.value() + 0x9e3779b97f4a7c15ULL;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      h = z ^ (z >> 31);
    }
    return static_cast<std::size_t>(h);
  }
};

/// Tuning of the four carries (a)-(d) above, which always run when a
/// session is passed to Prism::analyze.
struct SessionConfig {
  /// EWMA smoothing factor for the carried step baselines.
  double ewma_alpha = 0.2;
  /// Cross-window observations required before the EWMA rule may score.
  std::size_t ewma_min_samples = 6;
  /// A trailing DP burst ending within this of the window end is held back
  /// (it may continue in the next window). A burst genuinely cut by the
  /// boundary has events ending at — usually past — the window end, so
  /// this only needs to cover intra-burst event gaps; a generous value
  /// holds (and re-processes) complete bursts that merely finished near
  /// the boundary.
  DurationNs boundary_hold = 50 * kMillisecond;
  /// Per-job state not observed for this many windows is evicted.
  std::size_t evict_after_windows = 8;

  /// Descriptive configuration errors (empty = valid).
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Cumulative counters over the session's lifetime.
struct SessionCounters {
  std::uint64_t windows = 0;               ///< analyze() calls completed
  std::uint64_t jobs_created = 0;          ///< per-job states minted
  std::uint64_t jobs_reused = 0;           ///< states found warm
  std::uint64_t jobs_invalidated = 0;      ///< states evicted or dropped
  std::uint64_t recognition_reuses = 0;    ///< cached partition+router hits
  std::uint64_t recognition_rebuilds = 0;  ///< pair-set misses (full pass)
  std::uint64_t pairs_reused = 0;          ///< comm-type warm-prior hits
  std::uint64_t pairs_reclassified = 0;    ///< new/contradicting pairs
  std::uint64_t boundary_steps_held = 0;   ///< tail bursts held back
  std::uint64_t boundary_steps_carried = 0;  ///< held bursts completed later
  std::uint64_t ewma_step_alerts = 0;      ///< alerts from carried baselines
};

/// All state carried for one job (keyed by its machine set). Pipeline-
/// facing: Prism::analyze hands the members to the stage carries; do not
/// touch from more than one thread at a time.
struct SessionJobState {
  CommTypeCarry comm;
  TimelineCarry timeline;
  /// Per-GPU cross-window step-duration baselines.
  std::unordered_map<GpuId, EwmaBaseline> step_baselines;
  /// EWMA alerts raised in the current window (reset when fetched).
  std::uint64_t ewma_alerts_last = 0;
  /// Session window index this state was last observed in.
  std::uint64_t last_seen_window = 0;
};

/// Warm analysis state threaded through Prism::analyze(trace, session) by
/// the OnlineMonitor (or any caller analyzing consecutive windows of one
/// feed). See the file comment for what is carried and the threading
/// contract; DESIGN.md §9 documents the warm-vs-cold equivalence contract.
class PrismSession {
 public:
  explicit PrismSession(SessionConfig config = {});
  /// Takes this session's share out of the process-wide jobs_tracked gauge.
  ~PrismSession();
  PrismSession(const PrismSession&) = delete;
  PrismSession& operator=(const PrismSession&) = delete;

  /// Arm the next analyze() call with its window geometry. `hold_tail`
  /// should be true for every window except the final one (flush/shutdown),
  /// whose trailing burst is genuinely the end of the feed. A call that was
  /// not armed derives window_end from the trace and does not hold tails.
  void begin_window(TimeNs window_end, bool hold_tail);

  /// Drop all carried state (counted in jobs_invalidated, published at
  /// once). The next window runs the full cold pipeline and re-seeds the
  /// caches.
  void invalidate();

  [[nodiscard]] const SessionCounters& counters() const { return counters_; }
  [[nodiscard]] const SessionConfig& config() const { return config_; }
  /// Per-job states currently held (post-eviction).
  [[nodiscard]] std::size_t jobs_tracked() const { return job_states_.size(); }

  // ---- pipeline-facing (called by Prism::analyze on the warm path) ----

  /// True when `view`'s communication pair set equals the cached one, so
  /// cached_recognition()/cached_router() may be reused for this window.
  /// Reads only the src/dst columns.
  [[nodiscard]] bool probe_recognition(const FlowView& view);
  [[nodiscard]] const JobRecognitionResult& cached_recognition() const {
    return recognition_;
  }
  [[nodiscard]] const FlowRouter& cached_router() const { return *router_; }
  /// Seed the recognition cache after a full pass (pairs taken from the
  /// preceding probe_recognition call on the same trace).
  void store_recognition(const JobRecognitionResult& recognition);

  /// Fetch (or mint) the per-job state for a machine set; marks it
  /// observed in the current window and resets its per-window outputs.
  [[nodiscard]] SessionJobState& job_state(
      const std::vector<MachineId>& machines);
  /// Fold one job's per-window outcome counters into the session counters
  /// (call in job-id order for deterministic totals).
  void fold_job(const SessionJobState& state);
  /// Close the current window: evict stale per-job states, bump window
  /// counters, publish them to the registry, disarm.
  void finish_window();

  [[nodiscard]] bool window_armed() const { return window_armed_; }
  [[nodiscard]] TimeNs window_end() const { return window_end_; }
  [[nodiscard]] bool hold_tail() const { return hold_tail_; }

 private:
  /// Snapshot codec (core/snapshot.hpp): serializes the carried state —
  /// priors, EWMA baselines, timeline tails, recognition cache — to a
  /// versioned binary blob and restores it into a same-config session.
  friend struct SnapshotAccess;

  /// The one point where the session writes the registry: counter growth
  /// since the last call, and this session's change of the jobs_tracked
  /// gauge (a process total, summed over sessions).
  void publish();

  SessionConfig config_;
  SessionCounters counters_;
  SessionCounters published_;            ///< counters_ as last published
  std::size_t published_jobs_tracked_ = 0;

  // Recognition cache: the pair set the cached partition was derived from.
  bool recognition_valid_ = false;
  std::unordered_set<GpuPair> cached_pairs_;
  std::unordered_set<GpuPair> probe_pairs_;  ///< last probe's pair set
  JobRecognitionResult recognition_;
  std::optional<FlowRouter> router_;

  std::unordered_map<std::vector<MachineId>, SessionJobState, MachineSetHash>
      job_states_;
  std::uint64_t window_index_ = 0;
  TimeNs window_end_ = 0;
  bool hold_tail_ = false;
  bool window_armed_ = false;
};

}  // namespace llmprism
