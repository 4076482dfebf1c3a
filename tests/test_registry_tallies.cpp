// The obs registry's pipeline counters are fed from the deterministic
// tallies (ReportTelemetry, SessionCounters, MonitorStats): every counter
// must move by exactly the tally it mirrors, and the level gauges must be
// process totals over every live monitor.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "llmprism/core/monitor.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/obs/metrics.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

std::uint64_t counter(const char* name) {
  return obs::default_registry().counter(name).value();
}

double gauge(const char* name) {
  return obs::default_registry().gauge(name).value();
}

/// Values of `names`, read in one pass.
std::vector<std::uint64_t> read_counters(const std::vector<const char*>& names) {
  std::vector<std::uint64_t> out;
  for (const char* name : names) out.push_back(counter(name));
  return out;
}

/// One 32-GPU job with a straggler rank and a slow DP group, so the
/// k-sigma rules alert and attribution emits incidents.
ClusterSimResult faulted_sim() {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 4, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 2, .pp = 2, .micro_batches = 4};
  job.num_steps = 20;
  job.stragglers.push_back(
      {.rank = 5, .step_begin = 12, .step_end = 14, .slowdown = 2.5});
  job.slow_dp_groups.push_back({.tp_idx = 2, .pp_idx = 0, .step_begin = 6,
                                .step_end = 8, .slowdown = 3.0});
  cfg.jobs.push_back({job, {}});
  cfg.seed = 11;
  return run_cluster_sim(cfg);
}

MonitorConfig warm_config() {
  MonitorConfig cfg;
  cfg.window = 2 * kSecond;
  cfg.carry_state = true;
  return cfg;
}

TEST(RegistryTallyTest, AnalyzeCountersEqualReportFields) {
  const ClusterSimResult sim = faulted_sim();
  const std::vector<std::pair<const char*, std::uint64_t ReportTelemetry::*>>
      fields = {
          {"llmprism_flows_routed_total", &ReportTelemetry::flows_routed},
          {"llmprism_flows_routed_via_dst_total",
           &ReportTelemetry::flows_routed_via_dst},
          {"llmprism_flows_unattributed_total",
           &ReportTelemetry::flows_unattributed},
          {"llmprism_comm_type_pairs_total",
           &ReportTelemetry::pairs_classified},
          {"llmprism_comm_type_refinement_flips_total",
           &ReportTelemetry::refinement_flips},
          {"llmprism_comm_type_artifact_clusters_total",
           &ReportTelemetry::artifact_size_clusters},
          {"llmprism_comm_type_artifact_flows_total",
           &ReportTelemetry::artifact_flows},
          {"llmprism_comm_type_artifact_segments_total",
           &ReportTelemetry::artifact_segments},
          {"llmprism_bocd_observations_total",
           &ReportTelemetry::bocd_observations},
          {"llmprism_bocd_boundaries_total",
           &ReportTelemetry::bocd_boundaries},
          {"llmprism_bocd_hard_resets_total",
           &ReportTelemetry::bocd_hard_resets},
          {"llmprism_ksigma_series_total", &ReportTelemetry::ksigma_series},
          {"llmprism_ksigma_points_total", &ReportTelemetry::ksigma_points},
          {"llmprism_ksigma_alerts_total", &ReportTelemetry::ksigma_alerts},
          {"llmprism_incidents_total", &ReportTelemetry::incidents},
          {"llmprism_alerts_explained_total",
           &ReportTelemetry::alerts_explained},
          {"llmprism_alerts_orphaned_total",
           &ReportTelemetry::alerts_orphaned},
      };
  std::vector<const char*> names = {"llmprism_analyses_total",
                                    "llmprism_jobs_recognized_total"};
  for (const auto& [name, field] : fields) names.push_back(name);

  const std::vector<std::uint64_t> before = read_counters(names);
  PrismConfig config;
  config.num_threads = 2;
  const Prism prism(sim.topology, config);
  const PrismReport report = prism.analyze(sim.trace.view());
  const std::vector<std::uint64_t> after = read_counters(names);

  const ReportTelemetry& t = report.telemetry;
  ASSERT_GT(t.ksigma_alerts, 0u) << "fixture must raise alerts";
  ASSERT_GT(t.incidents, 0u) << "fixture must attribute incidents";
  ASSERT_GT(t.bocd_observations, 0u);

  EXPECT_EQ(after[0] - before[0], 1u) << names[0];
  EXPECT_EQ(after[1] - before[1], report.jobs.size()) << names[1];
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(after[i + 2] - before[i + 2], t.*fields[i].second)
        << fields[i].first;
  }
}

TEST(RegistryTallyTest, MonitorCountersEqualSessionAndMonitorTallies) {
  const ClusterSimResult sim = faulted_sim();
  const std::vector<std::pair<const char*, std::uint64_t SessionCounters::*>>
      session_fields = {
          {"llmprism_session_windows_total", &SessionCounters::windows},
          {"llmprism_session_jobs_created_total",
           &SessionCounters::jobs_created},
          {"llmprism_session_jobs_reused_total", &SessionCounters::jobs_reused},
          {"llmprism_session_jobs_invalidated_total",
           &SessionCounters::jobs_invalidated},
          {"llmprism_session_pairs_reused_total",
           &SessionCounters::pairs_reused},
          {"llmprism_session_pairs_reclassified_total",
           &SessionCounters::pairs_reclassified},
          {"llmprism_session_boundary_steps_held_total",
           &SessionCounters::boundary_steps_held},
          {"llmprism_session_boundary_steps_carried_total",
           &SessionCounters::boundary_steps_carried},
          {"llmprism_session_ewma_alerts_total",
           &SessionCounters::ewma_step_alerts},
      };
  const std::vector<std::pair<const char*, std::size_t MonitorStats::*>>
      monitor_fields = {
          {"llmprism_monitor_flows_ingested_total",
           &MonitorStats::flows_ingested},
          {"llmprism_monitor_flows_dropped_late_total",
           &MonitorStats::flows_dropped_late},
          {"llmprism_monitor_windows_completed_total",
           &MonitorStats::windows_completed},
          {"llmprism_monitor_stable_ids_total",
           &MonitorStats::stable_ids_created},
      };
  std::vector<const char*> names;
  for (const auto& [name, field] : session_fields) names.push_back(name);
  for (const auto& [name, field] : monitor_fields) names.push_back(name);
  names.push_back("llmprism_analyses_total");
  names.push_back("llmprism_flows_routed_total");

  const std::vector<std::uint64_t> before = read_counters(names);
  OnlineMonitor monitor(sim.topology, warm_config());
  // Two batches with an invalidation between them (published at once),
  // a replayed early flow that arrives too late, then the final flush.
  const std::size_t half = sim.trace.size() / 2;
  FlowColumns first;
  FlowColumns second;
  for (std::size_t i = 0; i < sim.trace.size(); ++i) {
    (i < half ? first : second).add(sim.trace[i]);
  }
  second.add(sim.trace[0]);
  std::uint64_t routed = 0;
  std::size_t windows = 0;
  for (const MonitorTick& tick : monitor.ingest(first)) {
    routed += tick.report.telemetry.flows_routed;
    ++windows;
  }
  monitor.invalidate_session();
  for (const MonitorTick& tick : monitor.ingest(second)) {
    routed += tick.report.telemetry.flows_routed;
    ++windows;
  }
  if (const auto last = monitor.flush()) {
    routed += last->report.telemetry.flows_routed;
    ++windows;
  }
  const std::vector<std::uint64_t> after = read_counters(names);

  const SessionCounters& k = monitor.session()->counters();
  const MonitorStats& st = monitor.stats();
  ASSERT_GT(k.jobs_invalidated, 0u);
  ASSERT_GT(k.pairs_reused, 0u);
  ASSERT_GT(st.flows_dropped_late, 0u);
  std::size_t i = 0;
  for (const auto& [name, field] : session_fields) {
    EXPECT_EQ(after[i] - before[i], k.*field) << name;
    ++i;
  }
  for (const auto& [name, field] : monitor_fields) {
    EXPECT_EQ(after[i] - before[i], st.*field) << name;
    ++i;
  }
  EXPECT_EQ(after[i] - before[i], windows) << names[i];
  ++i;
  EXPECT_EQ(after[i] - before[i], routed) << names[i];
}

/// Flows a monitor still buffers: accepted minus analyzed.
std::size_t buffered(const OnlineMonitor& monitor,
                     const std::vector<MonitorTick>& ticks) {
  std::size_t analyzed = 0;
  for (const MonitorTick& tick : ticks) {
    analyzed += tick.report.telemetry.flows_total;
  }
  return monitor.stats().flows_ingested - analyzed;
}

TEST(RegistryTallyTest, LevelGaugesSumOverMonitors) {
  const ClusterSimResult sim = faulted_sim();
  const double jobs0 = gauge("llmprism_session_jobs_tracked");
  const double buffered0 = gauge("llmprism_monitor_buffered_flows");
  const double in_flight0 = gauge("llmprism_monitor_windows_in_flight");

  FlowColumns head;
  for (std::size_t i = 0; i < sim.trace.size() / 2; ++i) {
    head.add(sim.trace[i]);
  }
  OnlineMonitor a(sim.topology, warm_config());
  std::vector<MonitorTick> ticks_a = a.ingest(head);
  auto b = std::make_unique<OnlineMonitor>(sim.topology, warm_config());
  const std::vector<MonitorTick> ticks_b = b->ingest(sim.trace);

  const std::size_t buffered_a = buffered(a, ticks_a);
  const std::size_t buffered_b = buffered(*b, ticks_b);
  ASSERT_GT(buffered_a, 0u);
  ASSERT_GT(buffered_b, 0u);
  const double jobs_a = static_cast<double>(a.session()->jobs_tracked());
  const double jobs_b = static_cast<double>(b->session()->jobs_tracked());
  ASSERT_GT(jobs_a, 0.0);
  EXPECT_EQ(gauge("llmprism_session_jobs_tracked") - jobs0, jobs_a + jobs_b);
  EXPECT_EQ(gauge("llmprism_monitor_buffered_flows") - buffered0,
            static_cast<double>(buffered_a + buffered_b));
  EXPECT_EQ(gauge("llmprism_monitor_windows_in_flight") - in_flight0, 0.0);

  // A flush empties the buffer, and the gauge says so.
  if (auto last = a.flush()) ticks_a.push_back(std::move(*last));
  EXPECT_EQ(buffered(a, ticks_a), 0u);
  EXPECT_EQ(gauge("llmprism_monitor_buffered_flows") - buffered0,
            static_cast<double>(buffered_b));

  // A destroyed monitor takes its share with it.
  b.reset();
  EXPECT_EQ(gauge("llmprism_monitor_buffered_flows") - buffered0, 0.0);
  EXPECT_EQ(gauge("llmprism_session_jobs_tracked") - jobs0,
            static_cast<double>(a.session()->jobs_tracked()));
}

}  // namespace
}  // namespace llmprism
