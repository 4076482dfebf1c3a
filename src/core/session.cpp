#include "llmprism/core/session.hpp"

#include <string>
#include <utility>

#include "llmprism/obs/metrics.hpp"

namespace llmprism {

namespace {

/// Registry instruments for the session warm path; looked up once. These
/// are process-wide cumulative views of the per-session SessionCounters
/// (which stay exact and per-instance for tests and reports).
struct SessionMetrics {
  obs::Counter& windows;
  obs::Counter& jobs_created;
  obs::Counter& jobs_reused;
  obs::Counter& jobs_invalidated;
  obs::Counter& recognition_reuses;
  obs::Counter& recognition_rebuilds;
  obs::Counter& pairs_reused;
  obs::Counter& pairs_reclassified;
  obs::Counter& boundary_steps_held;
  obs::Counter& boundary_steps_carried;
  obs::Counter& ewma_alerts;
  obs::Gauge& jobs_tracked;
};

SessionMetrics& session_metrics() {
  static SessionMetrics metrics{
      obs::default_registry().counter("llmprism_session_windows_total",
                                      "Warm analysis windows completed"),
      obs::default_registry().counter(
          "llmprism_session_jobs_created_total",
          "Per-job session states minted (cache misses)"),
      obs::default_registry().counter(
          "llmprism_session_jobs_reused_total",
          "Per-job session states found warm (cache hits)"),
      obs::default_registry().counter(
          "llmprism_session_jobs_invalidated_total",
          "Per-job session states evicted or dropped"),
      obs::default_registry().counter(
          "llmprism_session_recognition_reuses_total",
          "Windows whose recognition partition + router were reused"),
      obs::default_registry().counter(
          "llmprism_session_recognition_rebuilds_total",
          "Windows whose pair set missed the recognition cache"),
      obs::default_registry().counter(
          "llmprism_session_pairs_reused_total",
          "Comm-type classifications reused from warm priors"),
      obs::default_registry().counter(
          "llmprism_session_pairs_reclassified_total",
          "Pairs re-run through full BOCD classification"),
      obs::default_registry().counter(
          "llmprism_session_boundary_steps_held_total",
          "Trailing DP bursts held back across a window boundary"),
      obs::default_registry().counter(
          "llmprism_session_boundary_steps_carried_total",
          "Held bursts completed in a later window"),
      obs::default_registry().counter(
          "llmprism_session_ewma_alerts_total",
          "Cross-step alerts raised from carried EWMA baselines"),
      obs::default_registry().gauge("llmprism_session_jobs_tracked",
                                    "Per-job states currently held"),
  };
  return metrics;
}

}  // namespace

std::vector<std::string> SessionConfig::validate() const {
  std::vector<std::string> errors;
  if (!(ewma_alpha > 0.0) || ewma_alpha > 1.0) {
    errors.push_back("session: ewma_alpha must be in (0, 1], got " +
                     std::to_string(ewma_alpha));
  }
  if (ewma_min_samples < 2) {
    errors.push_back(
        "session: ewma_min_samples must be >= 2 (a spread estimate needs at "
        "least two observations), got " +
        std::to_string(ewma_min_samples));
  }
  if (boundary_hold < 0) {
    errors.push_back("session: boundary_hold must be >= 0, got " +
                     std::to_string(boundary_hold));
  }
  if (evict_after_windows < 1) {
    errors.push_back("session: evict_after_windows must be >= 1");
  }
  return errors;
}

PrismSession::PrismSession(SessionConfig config) : config_(config) {}

void PrismSession::begin_window(TimeNs window_end, bool hold_tail) {
  window_end_ = window_end;
  hold_tail_ = hold_tail;
  window_armed_ = true;
}

void PrismSession::invalidate() {
  const std::uint64_t dropped = job_states_.size();
  counters_.jobs_invalidated += dropped;
  session_metrics().jobs_invalidated.inc(dropped);
  job_states_.clear();
  recognition_valid_ = false;
  cached_pairs_.clear();
  router_.reset();
  session_metrics().jobs_tracked.set(0.0);
}

bool PrismSession::probe_recognition(const FlowView& view) {
  probe_pairs_.clear();
  probe_pairs_.reserve(view.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    probe_pairs_.insert(view.pair(i));
  }
  // Exact pair-set equality: recognition is a pure function of the
  // undirected edge set (union-find + canonical machine-set merging), so a
  // matching set makes the cached partition provably identical — this is a
  // verified fast path, not a heuristic.
  if (recognition_valid_ && probe_pairs_ == cached_pairs_) {
    ++counters_.recognition_reuses;
    session_metrics().recognition_reuses.inc();
    return true;
  }
  ++counters_.recognition_rebuilds;
  session_metrics().recognition_rebuilds.inc();
  return false;
}

void PrismSession::store_recognition(const JobRecognitionResult& recognition) {
  cached_pairs_ = std::move(probe_pairs_);
  probe_pairs_ = {};
  recognition_ = recognition;
  router_.emplace(std::span<const RecognizedJob>(recognition_.jobs));
  recognition_valid_ = true;
}

SessionJobState& PrismSession::job_state(
    const std::vector<MachineId>& machines) {
  const auto it = job_states_.find(machines);
  SessionJobState* state;
  if (it != job_states_.end()) {
    ++counters_.jobs_reused;
    session_metrics().jobs_reused.inc();
    state = &it->second;
  } else {
    ++counters_.jobs_created;
    session_metrics().jobs_created.inc();
    state = &job_states_.emplace(machines, SessionJobState{}).first->second;
  }
  state->last_seen_window = window_index_;
  // Reset the per-window outcome fields here rather than trusting each
  // stage to do it: a disabled stage (e.g. reuse_comm_types = false) never
  // touches its carry, and fold_job must not re-count last window's work.
  state->comm.pairs_reused = 0;
  state->comm.pairs_reclassified = 0;
  state->timeline.steps_held = 0;
  state->timeline.steps_carried_in = 0;
  state->ewma_alerts_last = 0;
  return *state;
}

void PrismSession::fold_job(const SessionJobState& state) {
  counters_.pairs_reused += state.comm.pairs_reused;
  counters_.pairs_reclassified += state.comm.pairs_reclassified;
  counters_.boundary_steps_held += state.timeline.steps_held;
  counters_.boundary_steps_carried += state.timeline.steps_carried_in;
  counters_.ewma_step_alerts += state.ewma_alerts_last;
  SessionMetrics& metrics = session_metrics();
  metrics.pairs_reused.inc(state.comm.pairs_reused);
  metrics.pairs_reclassified.inc(state.comm.pairs_reclassified);
  metrics.boundary_steps_held.inc(state.timeline.steps_held);
  metrics.boundary_steps_carried.inc(state.timeline.steps_carried_in);
  metrics.ewma_alerts.inc(state.ewma_alerts_last);
}

void PrismSession::finish_window() {
  // Evict jobs not observed for evict_after_windows windows: their carried
  // tails and baselines describe a tenant that left those machines, and a
  // new tenant must start cold.
  std::uint64_t evicted = 0;
  for (auto it = job_states_.begin(); it != job_states_.end();) {
    if (window_index_ - it->second.last_seen_window >=
        config_.evict_after_windows) {
      it = job_states_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  counters_.jobs_invalidated += evicted;
  ++counters_.windows;
  ++window_index_;
  window_armed_ = false;
  SessionMetrics& metrics = session_metrics();
  metrics.jobs_invalidated.inc(evicted);
  metrics.windows.inc();
  metrics.jobs_tracked.set(static_cast<double>(job_states_.size()));
}

}  // namespace llmprism
