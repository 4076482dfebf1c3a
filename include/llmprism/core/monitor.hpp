// Continuous online monitoring (the paper's deployment mode: LLMPrism "has
// been deployed ... since Oct. 2024", analyzing the live flow feed window
// by window and alerting SREs).
//
// OnlineMonitor ingests flow batches as the collector delivers them,
// partitions time into fixed analysis windows, runs the full Prism pipeline
// on every completed window, and keeps job identities stable across
// windows (a tenant's job keeps its id as long as it occupies the same
// machines), so alerts can be attributed to long-running jobs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "llmprism/common/thread_pool.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/core/session.hpp"

namespace llmprism {

struct MonitorConfig {
  PrismConfig prism;
  /// Analysis window length.
  DurationNs window = kMinute;
  /// Flows may arrive out of order by up to this much; a window is closed
  /// only once the watermark (latest flow start seen) passes its end by
  /// this slack.
  DurationNs reorder_slack = kSecond;
  /// Carry warm state across windows through a PrismSession (see
  /// session.hpp): comm-type priors, boundary-straddling step
  /// reconstruction, cross-window EWMA baselines. With
  /// carry the closed windows of one batch are analyzed sequentially in
  /// time order (the state is a chain); set false for the stateless mode,
  /// which analyzes a batch's windows concurrently and is bit-identical to
  /// the pre-session monitor.
  bool carry_state = true;

  /// Descriptive configuration errors (empty = valid; includes the nested
  /// prism config). The OnlineMonitor constructor throws a
  /// std::invalid_argument listing every problem at once.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// The reorder slack the CLIs give a monitor with this window: 1 s, or the
/// whole window when that is shorter (the slack may not exceed it).
[[nodiscard]] inline DurationNs reorder_slack_for(DurationNs window) {
  return std::clamp(window, DurationNs{0}, kSecond);
}

/// A stable identity for a recognized job across windows.
using MonitorJobId = std::uint64_t;

/// Result of analyzing one completed window.
struct MonitorTick {
  TimeWindow window;
  PrismReport report;
  /// Stable job id for each entry of report.jobs (parallel vector).
  std::vector<MonitorJobId> job_ids;
};

/// Cumulative counters across the monitor's lifetime.
struct MonitorStats {
  std::size_t flows_ingested = 0;
  /// Flows that arrived after their window had already closed (beyond the
  /// reorder slack) and were discarded.
  std::size_t flows_dropped_late = 0;
  std::size_t windows_completed = 0;
  /// Distinct stable job identities ever minted. Ids are recycled across
  /// windows, so a value growing in step with windows_completed means the
  /// machine-set keys churn (identity tracking is not holding).
  std::size_t stable_ids_created = 0;
  std::size_t step_alerts = 0;
  std::size_t group_alerts = 0;
  std::size_t switch_bandwidth_alerts = 0;
  std::size_t switch_concurrency_alerts = 0;
  /// Windows each stable job was observed in.
  std::unordered_map<MonitorJobId, std::size_t> job_windows;
};

class OnlineMonitor {
 public:
  explicit OnlineMonitor(const ClusterTopology& topology,
                         MonitorConfig config = {});
  /// Takes this monitor's share out of the process-wide buffered_flows
  /// gauge.
  ~OnlineMonitor();

  /// Feed a batch of flows (any order within the reorder slack): owning
  /// columns, a mapped LFT view or a daemon chunk. Rows are gathered
  /// straight from the view's columns into the reorder buffer, no
  /// FlowRecord is materialized. Returns one tick per window the batch
  /// completed, in time order. When the configured `prism.num_threads`
  /// allows, the completed windows of one batch are analyzed concurrently;
  /// ticks, stable job ids, and stats are still produced in time order and
  /// are identical to sequential ingestion.
  std::vector<MonitorTick> ingest(const FlowView& batch);

  /// Close and analyze the current partial window (end of feed / shutdown).
  /// Returns nothing if no flows are buffered.
  std::optional<MonitorTick> flush();

  [[nodiscard]] const MonitorStats& stats() const { return stats_; }

  /// Number of distinct jobs ever observed.
  [[nodiscard]] std::size_t jobs_seen() const { return job_ids_.size(); }

  /// The warm-state session (null when carry_state is false). Exposed for
  /// observability: counters() reports cache hits, invalidations, carried
  /// boundary steps, and EWMA alerts.
  [[nodiscard]] const PrismSession* session() const { return session_.get(); }

  /// Drop all carried warm state (e.g. after a known cluster re-shuffle);
  /// the next window runs cold and re-seeds. No-op without carry_state.
  void invalidate_session() {
    if (session_) session_->invalidate();
  }

 private:
  /// Snapshot codec (core/snapshot.hpp): serializes the reorder buffer,
  /// window clock, stable-id map, stats, and the embedded session so a
  /// restarted monitor resumes warm with byte-identical subsequent ticks.
  friend struct SnapshotAccess;

  MonitorTick analyze_window(TimeWindow window, FlowColumns flows);
  /// Stable-id assignment + stats, applied to ticks strictly in time order
  /// (this is what keeps ids independent of window-analysis scheduling).
  void finish_tick(MonitorTick& tick);
  MonitorJobId stable_id_for(const RecognizedJob& job);
  /// The one point where the monitor writes the registry (end of ingest()
  /// and flush()): stats growth since the last call, this monitor's change
  /// of the buffered_flows gauge (a process total), and its window lag.
  void publish();

  const ClusterTopology& topology_;
  MonitorConfig config_;
  Prism prism_;
  /// Warm cross-window state; null when carry_state is false.
  std::unique_ptr<PrismSession> session_;
  /// Fan-out pool for the completed windows of one batch; null when the
  /// configuration is single-threaded or carry_state serializes windows.
  std::unique_ptr<ThreadPool> window_pool_;

  /// Reorder buffer, columnar; invariant: always sorted (each ingest batch
  /// is sorted once and merged in, so window slicing is pure binary search
  /// over the start_ns column yielding zero-copy FlowView subviews).
  FlowColumns buffer_;
  bool window_origin_set_ = false;
  TimeNs window_begin_ = 0;   ///< begin of the oldest un-analyzed window
  TimeNs watermark_ = 0;      ///< latest flow start seen

  /// machine set -> stable id; the vector is copied only when a new
  /// identity is minted.
  std::unordered_map<std::vector<MachineId>, MonitorJobId, MachineSetHash>
      job_ids_;
  MonitorJobId next_job_id_ = 0;
  MonitorStats stats_;
  /// stats_ as last published; only its registry-backed counts are kept.
  MonitorStats published_;
  std::size_t published_buffered_ = 0;
};

}  // namespace llmprism
