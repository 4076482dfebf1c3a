// Warm-vs-cold differential tests for the incremental session engine
// (PrismSession, threaded through OnlineMonitor by MonitorConfig::
// carry_state).
//
// Contract under test (DESIGN.md §9), stated per field — with a session
// all four carries run, and each changes the report ONLY in its
// documented way:
//   - recognition reuse: none. report.recognition, the per-job traces and
//     the flows_* telemetry equal the stateless monitor's.
//   - comm-type priors: every pair's type and pre_refinement_type equal
//     cold; reused pairs report num_steps_observed == 0 and the BOCD work
//     telemetry shrinks.
//   - timeline tails: a DP burst straddling a window boundary is held
//     back and reconstructed whole by the next window (the cold path
//     truncates it at the boundary); DP events are conserved — every
//     event is emitted in exactly one tick, including on flush().
//   - EWMA baselines: extra early step alerts may appear (warm alerts
//     are a superset), once the cross-window baseline has history.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "llmprism/core/monitor.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/core/snapshot.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

JobSimConfig job(std::uint32_t tp, std::uint32_t dp, std::uint32_t pp,
                 std::uint32_t steps) {
  JobSimConfig cfg;
  cfg.parallelism.tp = tp;
  cfg.parallelism.dp = dp;
  cfg.parallelism.pp = pp;
  cfg.parallelism.micro_batches = 4;
  cfg.num_steps = steps;
  return cfg;
}

/// Two steady jobs, no collection noise: every communication pair is
/// active in every window, so the recognition and comm-type caches get
/// real hits.
ClusterSimConfig steady_mix() {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 8, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  cfg.jobs.push_back({job(8, 2, 2, 16), {}});
  cfg.jobs.push_back({job(8, 4, 1, 16), {}});
  cfg.seed = 21;
  return cfg;
}

/// One job, long enough to place a window boundary mid-step.
ClusterSimConfig single_job_mix(std::uint32_t steps) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 4, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  cfg.jobs.push_back({job(8, 2, 2, steps), {}});
  cfg.seed = 22;
  return cfg;
}

struct MixData {
  ClusterSimResult sim;
};

const MixData& steady_jobs() {
  static const MixData mix{run_cluster_sim(steady_mix())};
  return mix;
}

const MixData& straddle_job() {
  static const MixData mix{run_cluster_sim(single_job_mix(24))};
  return mix;
}

MonitorConfig monitor_config(DurationNs window, bool carry) {
  MonitorConfig cfg;
  cfg.window = window;
  cfg.reorder_slack = 0;  // close windows as soon as the watermark passes
  cfg.carry_state = carry;
  return cfg;
}

std::vector<MonitorTick> run_monitor(OnlineMonitor& monitor,
                                     const FlowView& flows) {
  auto ticks = monitor.ingest(flows);
  if (auto last = monitor.flush()) ticks.push_back(std::move(*last));
  return ticks;
}

// --- comparison helpers ---------------------------------------------------

void expect_traces_equal(const FlowColumns& a, const FlowColumns& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "flow " << i;
  }
}

void expect_timelines_equal(const GpuTimeline& a, const GpuTimeline& b) {
  EXPECT_EQ(a.gpu, b.gpu);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].start, b.events[i].start);
    EXPECT_EQ(a.events[i].end, b.events[i].end);
    EXPECT_EQ(a.events[i].peer, b.events[i].peer);
  }
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    EXPECT_EQ(a.steps[i].index, b.steps[i].index);
    EXPECT_EQ(a.steps[i].begin, b.steps[i].begin);
    EXPECT_EQ(a.steps[i].end, b.steps[i].end);
    EXPECT_EQ(a.steps[i].dp_begin, b.steps[i].dp_begin);
    EXPECT_EQ(a.steps[i].dp_end, b.steps[i].dp_end);
  }
}

void expect_recognition_equal(const JobRecognitionResult& a,
                              const JobRecognitionResult& b) {
  EXPECT_EQ(a.num_cross_machine_clusters, b.num_cross_machine_clusters);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    SCOPED_TRACE("recognized job " + std::to_string(j));
    EXPECT_EQ(a.jobs[j].gpus, b.jobs[j].gpus);
    EXPECT_EQ(a.jobs[j].observed_gpus, b.jobs[j].observed_gpus);
    EXPECT_EQ(a.jobs[j].machines, b.jobs[j].machines);
    EXPECT_EQ(a.jobs[j].cross_machine_clusters,
              b.jobs[j].cross_machine_clusters);
  }
}

void expect_flow_telemetry_equal(const ReportTelemetry& a,
                                 const ReportTelemetry& b) {
  EXPECT_EQ(a.flows_total, b.flows_total);
  EXPECT_EQ(a.flows_routed, b.flows_routed);
  EXPECT_EQ(a.flows_routed_via_dst, b.flows_routed_via_dst);
  EXPECT_EQ(a.flows_unattributed, b.flows_unattributed);
}

void expect_reports_equal(const PrismReport& a, const PrismReport& b) {
  expect_recognition_equal(a.recognition, b.recognition);

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    const JobAnalysis& ja = a.jobs[j];
    const JobAnalysis& jb = b.jobs[j];
    EXPECT_EQ(ja.id, jb.id);
    expect_traces_equal(ja.trace, jb.trace);
    ASSERT_EQ(ja.comm_types.pairs.size(), jb.comm_types.pairs.size());
    for (std::size_t p = 0; p < ja.comm_types.pairs.size(); ++p) {
      SCOPED_TRACE("pair " + std::to_string(p));
      EXPECT_EQ(ja.comm_types.pairs[p].pair, jb.comm_types.pairs[p].pair);
      EXPECT_EQ(ja.comm_types.pairs[p].type, jb.comm_types.pairs[p].type);
      EXPECT_EQ(ja.comm_types.pairs[p].pre_refinement_type,
                jb.comm_types.pairs[p].pre_refinement_type);
      EXPECT_EQ(ja.comm_types.pairs[p].num_flows,
                jb.comm_types.pairs[p].num_flows);
      EXPECT_EQ(ja.comm_types.pairs[p].num_steps_observed,
                jb.comm_types.pairs[p].num_steps_observed);
    }
    EXPECT_EQ(ja.comm_types.dp_components, jb.comm_types.dp_components);
    EXPECT_EQ(ja.inferred.world_size, jb.inferred.world_size);
    EXPECT_EQ(ja.inferred.dp, jb.inferred.dp);
    EXPECT_EQ(ja.inferred.pp, jb.inferred.pp);
    EXPECT_EQ(ja.inferred.tp, jb.inferred.tp);
    EXPECT_EQ(ja.inferred.micro_batches, jb.inferred.micro_batches);
    ASSERT_EQ(ja.timelines.size(), jb.timelines.size());
    for (std::size_t t = 0; t < ja.timelines.size(); ++t) {
      SCOPED_TRACE("timeline " + std::to_string(t));
      expect_timelines_equal(ja.timelines[t], jb.timelines[t]);
    }
    ASSERT_EQ(ja.step_alerts.size(), jb.step_alerts.size());
    for (std::size_t i = 0; i < ja.step_alerts.size(); ++i) {
      SCOPED_TRACE("step alert " + std::to_string(i));
      EXPECT_EQ(ja.step_alerts[i].gpu, jb.step_alerts[i].gpu);
      EXPECT_EQ(ja.step_alerts[i].step_index, jb.step_alerts[i].step_index);
      EXPECT_EQ(ja.step_alerts[i].duration_s, jb.step_alerts[i].duration_s);
      EXPECT_EQ(ja.step_alerts[i].mean_s, jb.step_alerts[i].mean_s);
      EXPECT_EQ(ja.step_alerts[i].threshold_s, jb.step_alerts[i].threshold_s);
    }
    ASSERT_EQ(ja.group_alerts.size(), jb.group_alerts.size());
  }

  EXPECT_EQ(a.switch_bandwidth_gbps, b.switch_bandwidth_gbps);
  ASSERT_EQ(a.switch_bandwidth_alerts.size(), b.switch_bandwidth_alerts.size());
  ASSERT_EQ(a.switch_concurrency_alerts.size(),
            b.switch_concurrency_alerts.size());

  // Attribution is a pure function of alerts + timelines + comm types, so
  // warm ticks must carry field-for-field identical incidents (the structs
  // have defaulted equality covering culprits, victims, and evidence).
  EXPECT_EQ(a.attribution.incidents, b.attribution.incidents);
  EXPECT_EQ(a.attribution.telemetry.alerts_explained,
            b.attribution.telemetry.alerts_explained);
  EXPECT_EQ(a.attribution.telemetry.alerts_orphaned,
            b.attribution.telemetry.alerts_orphaned);

  const ReportTelemetry& ta = a.telemetry;
  const ReportTelemetry& tb = b.telemetry;
  expect_flow_telemetry_equal(ta, tb);
  EXPECT_EQ(ta.pairs_classified, tb.pairs_classified);
  EXPECT_EQ(ta.pairs_dp, tb.pairs_dp);
  EXPECT_EQ(ta.pairs_pp, tb.pairs_pp);
  EXPECT_EQ(ta.refinement_flips, tb.refinement_flips);
  EXPECT_EQ(ta.artifact_size_clusters, tb.artifact_size_clusters);
  EXPECT_EQ(ta.artifact_flows, tb.artifact_flows);
  EXPECT_EQ(ta.artifact_segments, tb.artifact_segments);
  EXPECT_EQ(ta.bocd_observations, tb.bocd_observations);
  EXPECT_EQ(ta.bocd_boundaries, tb.bocd_boundaries);
  EXPECT_EQ(ta.bocd_hard_resets, tb.bocd_hard_resets);
  EXPECT_EQ(ta.timelines_reconstructed, tb.timelines_reconstructed);
  EXPECT_EQ(ta.timeline_events, tb.timeline_events);
  EXPECT_EQ(ta.steps_reconstructed, tb.steps_reconstructed);
  EXPECT_EQ(ta.ksigma_series, tb.ksigma_series);
  EXPECT_EQ(ta.ksigma_points, tb.ksigma_points);
  EXPECT_EQ(ta.ksigma_alerts, tb.ksigma_alerts);
  EXPECT_EQ(ta.incidents, tb.incidents);
  EXPECT_EQ(ta.alerts_explained, tb.alerts_explained);
  EXPECT_EQ(ta.alerts_orphaned, tb.alerts_orphaned);
}

void expect_ticks_equal(const std::vector<MonitorTick>& a,
                        const std::vector<MonitorTick>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("tick " + std::to_string(i));
    EXPECT_EQ(a[i].window.begin, b[i].window.begin);
    EXPECT_EQ(a[i].window.end, b[i].window.end);
    EXPECT_EQ(a[i].job_ids, b[i].job_ids);
    expect_reports_equal(a[i].report, b[i].report);
  }
}

/// Total DP timeline events across all ticks — the conservation quantity
/// of the timeline-tail carry (held events move between ticks, but every
/// one is emitted exactly once).
std::size_t total_dp_events(const std::vector<MonitorTick>& ticks) {
  std::size_t n = 0;
  for (const MonitorTick& tick : ticks) {
    for (const JobAnalysis& job : tick.report.jobs) {
      for (const GpuTimeline& t : job.timelines) {
        for (const TimelineEvent& e : t.events) {
          n += e.kind == TimelineEventKind::kDp;
        }
      }
    }
  }
  return n;
}

/// Concatenated (dp_begin, dp_end) step extents per GPU across all ticks.
std::unordered_map<GpuId, std::vector<std::pair<TimeNs, TimeNs>>>
concat_steps(const std::vector<MonitorTick>& ticks) {
  std::unordered_map<GpuId, std::vector<std::pair<TimeNs, TimeNs>>> out;
  for (const MonitorTick& tick : ticks) {
    for (const JobAnalysis& job : tick.report.jobs) {
      for (const GpuTimeline& t : job.timelines) {
        for (const ReconstructedStep& s : t.steps) {
          out[t.gpu].emplace_back(s.dp_begin, s.dp_end);
        }
      }
    }
  }
  return out;
}

// --- recognition reuse: the provably-exact core ---------------------------

/// Run the steady mix through a stateless and a carrying monitor.
struct ColdWarmRun {
  std::vector<MonitorTick> cold;
  std::vector<MonitorTick> warm;
  MonitorStats cold_stats;
  MonitorStats warm_stats;
  SessionCounters counters;
};

ColdWarmRun run_cold_and_warm(const MixData& mix, DurationNs window) {
  OnlineMonitor cold(mix.sim.topology, monitor_config(window, false));
  OnlineMonitor warm(mix.sim.topology, monitor_config(window, true));
  ColdWarmRun run;
  run.cold = run_monitor(cold, FlowColumns(mix.sim.trace).view());
  run.warm = run_monitor(warm, FlowColumns(mix.sim.trace).view());
  EXPECT_EQ(cold.session(), nullptr);
  EXPECT_NE(warm.session(), nullptr);
  run.cold_stats = cold.stats();
  run.warm_stats = warm.stats();
  if (warm.session() != nullptr) run.counters = warm.session()->counters();
  return run;
}

TEST(SessionEquivalenceTest, RecognitionOnlyWarmIsBitIdentical) {
  const ColdWarmRun run = run_cold_and_warm(steady_jobs(), 2 * kSecond);
  ASSERT_GE(run.cold.size(), 3u) << "mix must span several windows";
  ASSERT_EQ(run.cold.size(), run.warm.size());
  for (std::size_t i = 0; i < run.cold.size(); ++i) {
    SCOPED_TRACE("tick " + std::to_string(i));
    const MonitorTick& c = run.cold[i];
    const MonitorTick& w = run.warm[i];
    EXPECT_EQ(c.window.begin, w.window.begin);
    EXPECT_EQ(c.window.end, w.window.end);
    EXPECT_EQ(c.job_ids, w.job_ids);
    expect_recognition_equal(c.report.recognition, w.report.recognition);
    ASSERT_EQ(c.report.jobs.size(), w.report.jobs.size());
    for (std::size_t j = 0; j < c.report.jobs.size(); ++j) {
      SCOPED_TRACE("job " + std::to_string(j));
      expect_traces_equal(c.report.jobs[j].trace, w.report.jobs[j].trace);
    }
    expect_flow_telemetry_equal(c.report.telemetry, w.report.telemetry);
  }

  EXPECT_GE(run.counters.recognition_reuses, 1u)
      << "steady traffic must hit the recognition cache";
  EXPECT_GE(run.counters.recognition_rebuilds, 1u)
      << "the first window always seeds cold";
  EXPECT_EQ(run.counters.windows, run.warm.size());

  EXPECT_EQ(run.cold_stats.flows_ingested, run.warm_stats.flows_ingested);
  EXPECT_EQ(run.cold_stats.windows_completed,
            run.warm_stats.windows_completed);
  EXPECT_EQ(run.cold_stats.stable_ids_created,
            run.warm_stats.stable_ids_created);
}

// --- comm-type priors: identical classifications, less BOCD work ----------

TEST(SessionEquivalenceTest, CommPriorsChangeOnlyBocdWorkTelemetry) {
  const ColdWarmRun run = run_cold_and_warm(steady_jobs(), 2 * kSecond);
  ASSERT_EQ(run.cold.size(), run.warm.size());
  EXPECT_GT(run.counters.pairs_reused, 0u);

  // The documented exception is real: some warm pair skipped BOCD
  // (num_steps_observed == 0) where the cold run observed steps.
  bool found_reused_pair = false;
  std::uint64_t cold_bocd = 0;
  std::uint64_t warm_bocd = 0;
  for (std::size_t i = 0; i < run.warm.size(); ++i) {
    SCOPED_TRACE("tick " + std::to_string(i));
    const PrismReport& cold = run.cold[i].report;
    const PrismReport& warm = run.warm[i].report;
    cold_bocd += cold.telemetry.bocd_observations;
    warm_bocd += warm.telemetry.bocd_observations;
    ASSERT_EQ(cold.jobs.size(), warm.jobs.size());
    for (std::size_t j = 0; j < warm.jobs.size(); ++j) {
      SCOPED_TRACE("job " + std::to_string(j));
      EXPECT_EQ(cold.jobs[j].comm_types.dp_components,
                warm.jobs[j].comm_types.dp_components);
      const auto& cp = cold.jobs[j].comm_types.pairs;
      const auto& wp = warm.jobs[j].comm_types.pairs;
      ASSERT_EQ(cp.size(), wp.size());
      for (std::size_t p = 0; p < wp.size(); ++p) {
        EXPECT_EQ(cp[p].pair, wp[p].pair);
        EXPECT_EQ(cp[p].type, wp[p].type);
        EXPECT_EQ(cp[p].pre_refinement_type, wp[p].pre_refinement_type);
        if (wp[p].num_steps_observed == 0 && cp[p].num_steps_observed > 0) {
          found_reused_pair = true;
        }
      }
    }
  }
  EXPECT_TRUE(found_reused_pair);
  EXPECT_LT(warm_bocd, cold_bocd) << "priors must actually save BOCD work";
}

// --- timeline tails: boundary-straddling steps ----------------------------

/// Window geometry that provably places a boundary mid-DP-burst: the
/// middle step of the full-trace reference timeline, with W solved so
/// that boundary k = t0 + k*W lands inside its DP phase.
struct StraddleSetup {
  FlowTrace trace;
  TimeNs t0 = 0;
  DurationNs window = 0;
  TimeNs k = 0;  ///< index of the mid-burst boundary
  TimeNs boundary = 0;
  GpuId probe_gpu;
  std::pair<TimeNs, TimeNs> extent;  ///< target step's (dp_begin, dp_end)
};

const StraddleSetup& straddle_setup() {
  static const StraddleSetup setup = [] {
    StraddleSetup s;
    s.trace = straddle_job().sim.trace;
    s.trace.sort();
    s.t0 = s.trace.span().begin;
    // Full-trace analysis is the ground truth for step extents: no window
    // boundary exists, so no step is ever truncated.
    const PrismReport reference =
        Prism(straddle_job(
            ).sim.topology, PrismConfig{}).analyze(FlowColumns(s.trace).view());
    const GpuTimeline& probe = reference.jobs.at(0).timelines.at(0);
    const ReconstructedStep& target = probe.steps.at(probe.steps.size() / 2);
    s.probe_gpu = probe.gpu;
    s.extent = {target.dp_begin, target.dp_end};
    const TimeNs boundary_target =
        target.dp_begin + (target.dp_end - target.dp_begin) / 2;
    s.k = std::max<TimeNs>(1, (boundary_target - s.t0) / (1500 * kMillisecond));
    s.window = (boundary_target - s.t0) / s.k;
    s.boundary = s.t0 + s.k * s.window;
    return s;
  }();
  return setup;
}

bool contains_extent(
    const std::unordered_map<GpuId, std::vector<std::pair<TimeNs, TimeNs>>>&
        steps_by_gpu,
    GpuId gpu, const std::pair<TimeNs, TimeNs>& extent) {
  const auto it = steps_by_gpu.find(gpu);
  return it != steps_by_gpu.end() &&
         std::find(it->second.begin(), it->second.end(), extent) !=
             it->second.end();
}

TEST(SessionEquivalenceTest, BoundaryStraddlingStepReconstructed) {
  const MixData& mix = straddle_job();
  const StraddleSetup& s = straddle_setup();
  ASSERT_GT(s.boundary, s.extent.first);
  ASSERT_LT(s.boundary, s.extent.second);

  OnlineMonitor cold(mix.sim.topology, monitor_config(s.window, false));
  OnlineMonitor warm(mix.sim.topology, monitor_config(s.window, true));
  const auto cold_ticks = run_monitor(cold, FlowColumns(s.trace).view());
  const auto warm_ticks = run_monitor(warm, FlowColumns(s.trace).view());
  ASSERT_GT(cold_ticks.size(), static_cast<std::size_t>(s.k))
      << "boundary k must be a closed window";

  EXPECT_TRUE(contains_extent(concat_steps(warm_ticks), s.probe_gpu, s.extent))
      << "carry must reconstruct the straddling step with its full-trace "
         "extent";
  EXPECT_FALSE(contains_extent(concat_steps(cold_ticks), s.probe_gpu, s.extent))
      << "the stateless path truncates the straddling step at the boundary";

  // Held events are re-emitted by the next window, never lost.
  EXPECT_EQ(total_dp_events(warm_ticks), total_dp_events(cold_ticks));
  const PrismSession* session = warm.session();
  ASSERT_NE(session, nullptr);
  EXPECT_GT(session->counters().boundary_steps_held, 0u);
  EXPECT_GT(session->counters().boundary_steps_carried, 0u);
}

TEST(SessionEquivalenceTest, FlushEmitsCarriedStep) {
  const MixData& mix = straddle_job();
  const StraddleSetup& s = straddle_setup();

  // Cut the feed shortly after the straddling burst ends: window k closes
  // holding the burst's head, and flush() analyzes the remainder — which
  // still contains DP traffic, so the job's machine set stays whole and
  // the held events come out in the flush tick.
  const FlowColumns columns(s.trace);
  const FlowView feed =
      columns.view().window({s.t0, s.extent.second + 300 * kMillisecond});
  ASSERT_LT(feed.size(), s.trace.size());

  OnlineMonitor cold(mix.sim.topology, monitor_config(s.window, false));
  OnlineMonitor warm(mix.sim.topology, monitor_config(s.window, true));
  const auto cold_ticks = run_monitor(cold, feed);
  const auto warm_ticks = run_monitor(warm, feed);
  ASSERT_EQ(cold_ticks.size(), warm_ticks.size());
  ASSERT_EQ(warm_ticks.size(), static_cast<std::size_t>(s.k) + 1)
      << "k closed windows plus the flush tick";

  // The flush tick (hold_tail = false) emits the carried straddling step
  // whole; the stateless path truncated it at the boundary.
  EXPECT_TRUE(contains_extent(concat_steps(warm_ticks), s.probe_gpu, s.extent));
  EXPECT_FALSE(
      contains_extent(concat_steps(cold_ticks), s.probe_gpu, s.extent));
  EXPECT_EQ(total_dp_events(warm_ticks), total_dp_events(cold_ticks))
      << "flush must emit every held event exactly once";
  const PrismSession* session = warm.session();
  ASSERT_NE(session, nullptr);
  EXPECT_GT(session->counters().boundary_steps_held, 0u);
  EXPECT_GT(session->counters().boundary_steps_carried, 0u);
}

// --- EWMA baselines: early alerts on windows too short for k-sigma --------

TEST(SessionEquivalenceTest, EwmaBaselinesAlertWhereColdCannot) {
  // Short windows (~3 steps each) never reach the window-local k-sigma
  // min_samples, so the stateless monitor is blind to the straggler. The
  // carried EWMA baseline accumulates across windows and fires.
  ClusterSimConfig cfg = single_job_mix(30);
  cfg.jobs[0].config.stragglers.push_back(
      {.rank = 0, .step_begin = 20, .step_end = 22, .slowdown = 3.0});
  cfg.seed = 23;
  const ClusterSimResult sim = run_cluster_sim(cfg);

  OnlineMonitor cold(sim.topology, monitor_config(kSecond, false));
  OnlineMonitor warm(sim.topology, monitor_config(kSecond, true));
  const auto cold_ticks = run_monitor(cold, FlowColumns(sim.trace).view());
  const auto warm_ticks = run_monitor(warm, FlowColumns(sim.trace).view());
  ASSERT_GE(cold_ticks.size(), 6u);

  EXPECT_EQ(cold.stats().step_alerts, 0u)
      << "windows must be too short for the window-local rule";
  EXPECT_GT(warm.stats().step_alerts, 0u)
      << "the carried baseline must catch the straggler";
  const PrismSession* session = warm.session();
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->counters().ewma_step_alerts, warm.stats().step_alerts);

  // The alerts point at the straggler's windows, not the healthy start.
  std::size_t first_alert_tick = warm_ticks.size();
  for (std::size_t i = 0; i < warm_ticks.size(); ++i) {
    for (const JobAnalysis& j : warm_ticks[i].report.jobs) {
      if (!j.step_alerts.empty()) {
        first_alert_tick = std::min(first_alert_tick, i);
      }
    }
  }
  ASSERT_LT(first_alert_tick, warm_ticks.size());
  EXPECT_GE(first_alert_tick, 2u)
      << "no alert may fire before the baseline has min_samples history";
}

// --- job churn: invalidation and re-minting -------------------------------

TEST(SessionEquivalenceTest, JobChurnEvictsAndRemintsSessionState) {
  const MixData& mix = steady_jobs();
  FlowTrace trace = mix.sim.trace;
  trace.sort();
  const TimeNs t0 = trace.span().begin;

  // Job B's flows vanish for three windows mid-feed, then return. The gap
  // is window-aligned so B is absent for a deterministic window count, and
  // the feed is cut at B's last flow so B is present in the flush window
  // (no trailing re-eviction to account for).
  std::unordered_set<GpuId> job_b;
  for (const GpuId g : mix.sim.jobs[1].gpus) job_b.insert(g);
  TimeNs b_last = t0;
  for (const FlowRecord& f : trace) {
    if (job_b.count(f.src) > 0) b_last = std::max(b_last, f.start_time);
  }
  const DurationNs window = 500 * kMillisecond;
  const TimeNs gap_begin = t0 + 2 * window;
  const TimeNs gap_end = t0 + 5 * window;
  ASSERT_GT(b_last, gap_end + 2 * window)
      << "job B must return for at least two windows after the gap";
  FlowTrace churned;
  churned.reserve(trace.size());
  for (const FlowRecord& f : trace) {
    if (f.start_time > b_last) continue;
    const bool in_gap = f.start_time >= gap_begin && f.start_time < gap_end;
    if (in_gap && job_b.count(f.src) > 0) continue;
    churned.add(f);
  }
  ASSERT_LT(churned.size(), trace.size());

  MonitorConfig cfg = monitor_config(window, true);
  cfg.session.evict_after_windows = 2;
  OnlineMonitor warm(mix.sim.topology, cfg);
  const auto ticks = run_monitor(warm, FlowColumns(churned).view());
  ASSERT_GE(ticks.size(), 8u);

  const PrismSession* session = warm.session();
  ASSERT_NE(session, nullptr);
  // 2 states minted up front + job B re-minted after eviction.
  EXPECT_EQ(session->counters().jobs_created, 3u);
  EXPECT_EQ(session->counters().jobs_invalidated, 1u);
  // The pair set changed when B left and when it returned: those windows
  // must rebuild recognition, the steady stretches still reuse it.
  EXPECT_GE(session->counters().recognition_rebuilds, 3u);
  EXPECT_GE(session->counters().recognition_reuses, 2u);
  // The monitor's stable-id map never forgets: B keeps its id throughout.
  EXPECT_EQ(warm.stats().stable_ids_created, 2u);
}

TEST(SessionEquivalenceTest, InvalidateSessionForcesColdReseed) {
  const MixData& mix = steady_jobs();
  FlowTrace trace = mix.sim.trace;
  trace.sort();
  const TimeNs mid =
      trace.span().begin +
      (trace.span().end - trace.span().begin) / 2;

  const FlowColumns columns(trace);
  OnlineMonitor warm(mix.sim.topology, monitor_config(kSecond, true));
  auto ticks = warm.ingest(columns.view().window({trace.span().begin, mid}));
  ASSERT_GE(ticks.size(), 2u);
  const PrismSession* session = warm.session();
  ASSERT_NE(session, nullptr);
  const std::uint64_t rebuilds_before =
      session->counters().recognition_rebuilds;
  const std::uint64_t jobs_tracked = session->jobs_tracked();
  ASSERT_GT(jobs_tracked, 0u);

  warm.invalidate_session();
  EXPECT_EQ(session->jobs_tracked(), 0u);
  EXPECT_EQ(session->counters().jobs_invalidated, jobs_tracked);

  auto more = warm.ingest(columns.view().window({mid, trace.span().end}));
  if (auto last = warm.flush()) more.push_back(std::move(*last));
  ASSERT_GE(more.size(), 1u);
  EXPECT_GT(session->counters().recognition_rebuilds, rebuilds_before)
      << "the first post-invalidation window must run cold";
  EXPECT_GT(session->jobs_tracked(), 0u) << "and re-seed the caches";
}

// --- snapshot/restore: an interrupted warm session is no worse ------------

// The daemon's restart story (DESIGN.md §14): snapshot a warm monitor
// mid-stream, restore into a fresh one, keep ingesting — every subsequent
// tick must be field-for-field identical to the uninterrupted session,
// with every carry feature enabled (the byte-level blob contract lives in
// test_snapshot.cpp; this is the semantic differential).
TEST(SessionEquivalenceTest, SnapshotRestoreContinuesExactly) {
  const MixData& mix = steady_jobs();
  FlowTrace trace = mix.sim.trace;
  trace.sort();
  const TimeNs mid =
      trace.span().begin + (trace.span().end - trace.span().begin) / 2;
  const FlowColumns columns(trace);
  const FlowView head = columns.view().window({trace.span().begin, mid});
  const FlowView tail = columns.view().window({mid, trace.span().end + 1});

  OnlineMonitor reference(mix.sim.topology, monitor_config(2 * kSecond, true));
  auto ref_ticks = reference.ingest(head);
  for (MonitorTick& t : reference.ingest(tail)) {
    ref_ticks.push_back(std::move(t));
  }
  if (auto last = reference.flush()) ref_ticks.push_back(std::move(*last));
  ASSERT_GE(ref_ticks.size(), 3u);

  OnlineMonitor interrupted(mix.sim.topology,
                            monitor_config(2 * kSecond, true));
  auto ticks = interrupted.ingest(head);
  std::ostringstream blob;
  save_snapshot(blob, interrupted);

  OnlineMonitor restored(mix.sim.topology, monitor_config(2 * kSecond, true));
  {
    std::istringstream is(blob.str());
    restore_snapshot(is, restored);
  }
  for (MonitorTick& t : restored.ingest(tail)) ticks.push_back(std::move(t));
  if (auto last = restored.flush()) ticks.push_back(std::move(*last));

  expect_ticks_equal(ticks, ref_ticks);
  ASSERT_NE(restored.session(), nullptr);
  ASSERT_NE(reference.session(), nullptr);
  const SessionCounters& a = restored.session()->counters();
  const SessionCounters& b = reference.session()->counters();
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.recognition_reuses, b.recognition_reuses);
  EXPECT_EQ(a.pairs_reused, b.pairs_reused);
  EXPECT_EQ(a.boundary_steps_held, b.boundary_steps_held);
  EXPECT_EQ(a.boundary_steps_carried, b.boundary_steps_carried);
  EXPECT_EQ(a.ewma_step_alerts, b.ewma_step_alerts);
  EXPECT_EQ(restored.stats().stable_ids_created,
            reference.stats().stable_ids_created)
      << "stable job ids must survive the restart";
}

// --- determinism of the warm path under the per-job fan-out ---------------

TEST(SessionEquivalenceTest, WarmPathDeterministicUnderThreads) {
  const MixData& mix = steady_jobs();
  MonitorConfig seq_cfg = monitor_config(2 * kSecond, true);
  seq_cfg.prism.num_threads = 1;
  MonitorConfig par_cfg = seq_cfg;
  par_cfg.prism.num_threads = 4;

  OnlineMonitor sequential(mix.sim.topology, seq_cfg);
  OnlineMonitor parallel(mix.sim.topology, par_cfg);
  const auto expected =
      run_monitor(sequential, FlowColumns(mix.sim.trace).view());
  const auto got = run_monitor(parallel, FlowColumns(mix.sim.trace).view());

  ASSERT_GE(expected.size(), 3u);
  expect_ticks_equal(expected, got);
  ASSERT_NE(sequential.session(), nullptr);
  ASSERT_NE(parallel.session(), nullptr);
  const SessionCounters& a = sequential.session()->counters();
  const SessionCounters& b = parallel.session()->counters();
  EXPECT_EQ(a.recognition_reuses, b.recognition_reuses);
  EXPECT_EQ(a.pairs_reused, b.pairs_reused);
  EXPECT_EQ(a.pairs_reclassified, b.pairs_reclassified);
  EXPECT_EQ(a.boundary_steps_held, b.boundary_steps_held);
  EXPECT_EQ(a.boundary_steps_carried, b.boundary_steps_carried);
  EXPECT_EQ(a.ewma_step_alerts, b.ewma_step_alerts);
}

// --- API seams ------------------------------------------------------------

TEST(SessionEquivalenceTest, NullSessionOverloadMatchesColdAnalyze) {
  const MixData& mix = straddle_job();
  const Prism prism(mix.sim.topology, PrismConfig{});
  const PrismReport a = prism.analyze(FlowColumns(mix.sim.trace).view());
  const PrismReport b =
      prism.analyze(FlowColumns(mix.sim.trace).view(), nullptr);
  MonitorTick ta{.window = {}, .report = a, .job_ids = {}};
  MonitorTick tb{.window = {}, .report = b, .job_ids = {}};
  expect_ticks_equal({ta}, {tb});
}

TEST(SessionEquivalenceTest, SessionConfigValidationIsDescriptive) {
  SessionConfig bad;
  bad.ewma_alpha = 0.0;
  bad.ewma_min_samples = 1;
  bad.boundary_hold = -1;
  bad.evict_after_windows = 0;
  const auto errors = bad.validate();
  EXPECT_EQ(errors.size(), 4u);
  for (const std::string& e : errors) {
    EXPECT_FALSE(e.empty());
  }

  MonitorConfig cfg;
  cfg.session = bad;
  EXPECT_FALSE(cfg.validate().empty());
  const ClusterSimConfig sim_cfg = single_job_mix(2);
  const auto topology = ClusterTopology::build(sim_cfg.topology);
  EXPECT_THROW(OnlineMonitor(topology, cfg), std::invalid_argument);
  cfg.carry_state = false;  // session config is inert without carry
  EXPECT_TRUE(cfg.validate().empty());
}

}  // namespace
}  // namespace llmprism
