// Root-cause attribution against the simulator's injected ground truth:
// for every AnomalyKind the top-ranked culprit must name the injected
// fault, with downstream PP/DP victims listed as victims, never origins.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "llmprism/common/thread_pool.hpp"
#include "llmprism/core/attribution.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/parallelism/config.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

/// One 64-GPU tp8/dp4/pp2 job on 8 machines — every DP ring and PP edge
/// crosses machines, so the whole dependency graph is flow-visible.
ClusterSimConfig one_job_config(std::uint64_t seed, std::uint32_t num_steps) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 8, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  cfg.seed = seed;
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 4, .pp = 2, .micro_batches = 4};
  job.num_steps = num_steps;
  cfg.jobs.push_back({job, {}});
  return cfg;
}

/// GPUs of the ranks sharing (dp_idx, pp_idx) — the TP siblings a
/// flow-level observer cannot tell apart from the true straggler.
std::vector<GpuId> stage_gpus(const JobTruth& truth,
                              const ParallelismConfig& par,
                              std::uint32_t dp_idx, std::uint32_t pp_idx) {
  const RankMap map(par);
  std::vector<GpuId> gpus;
  for (const RankId r : map.tp_group(dp_idx, pp_idx)) {
    gpus.push_back(truth.gpus[r.value()]);
  }
  std::sort(gpus.begin(), gpus.end());
  return gpus;
}

/// GPUs of the DP ring (tp_idx, pp_idx), ascending.
std::vector<GpuId> ring_gpus(const JobTruth& truth,
                             const ParallelismConfig& par,
                             std::uint32_t tp_idx, std::uint32_t pp_idx) {
  const RankMap map(par);
  std::vector<GpuId> gpus;
  for (const RankId r : map.dp_group(tp_idx, pp_idx)) {
    gpus.push_back(truth.gpus[r.value()]);
  }
  std::sort(gpus.begin(), gpus.end());
  return gpus;
}

/// rank 11 = (tp 3, dp 1, pp 0) under kTpDpPp, 2.5x slow in step 8.
ClusterSimConfig straggler_config() {
  auto cfg = one_job_config(7, 20);
  cfg.jobs[0].config.stragglers.push_back(
      {.rank = 11, .step_begin = 8, .step_end = 8, .slowdown = 2.5});
  return cfg;
}

/// Ring (tp 2, pp 1) 3x slow in steps 10-11.
ClusterSimConfig slow_ring_config() {
  auto cfg = one_job_config(9, 20);
  cfg.jobs[0].config.slow_dp_groups.push_back({.tp_idx = 2,
                                               .pp_idx = 1,
                                               .step_begin = 10,
                                               .step_end = 11,
                                               .slowdown = 3.0});
  return cfg;
}

/// One machine per leaf: every DP ring crosses leaves, so per-switch
/// bandwidth has 4 leaves + 2 spines = 6 scorable series. Switch 0 runs
/// at 30% bandwidth for the whole trace.
ClusterSimConfig degraded_switch_config() {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 4, .gpus_per_machine = 8,
                  .machines_per_leaf = 1, .num_spines = 2};
  cfg.seed = 13;
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 4, .pp = 1, .micro_batches = 4};
  job.num_steps = 12;
  cfg.jobs.push_back({job, {}});
  cfg.switch_faults.push_back(
      {.switch_id = SwitchId(0), .window = {0, 2 * kHour},
       .bandwidth_factor = 0.3});
  return cfg;
}

/// rank 5 = (tp 5, dp 0, pp 0) 2.8x slow in step 7; ring (tp 1, pp 1)
/// 3x slow in steps 15-16 of the same window.
ClusterSimConfig two_fault_config() {
  auto cfg = one_job_config(21, 26);
  cfg.jobs[0].config.stragglers.push_back(
      {.rank = 5, .step_begin = 7, .step_end = 7, .slowdown = 2.8});
  cfg.jobs[0].config.slow_dp_groups.push_back({.tp_idx = 1,
                                               .pp_idx = 1,
                                               .step_begin = 15,
                                               .step_end = 16,
                                               .slowdown = 3.0});
  return cfg;
}

TEST(AttributionTest, CleanTraceYieldsNoIncidents) {
  const auto sim = run_cluster_sim(one_job_config(3, 12));
  const Prism prism(sim.topology);
  const auto report = prism.analyze(FlowColumns(sim.trace).view());
  EXPECT_TRUE(report.attribution.incidents.empty());
  EXPECT_EQ(report.telemetry.incidents, 0u);
  EXPECT_EQ(report.telemetry.alerts_explained, 0u);
  EXPECT_EQ(report.telemetry.alerts_orphaned, 0u);
}

TEST(AttributionTest, DisabledFlagSkipsAttribution) {
  auto cfg = one_job_config(5, 20);
  cfg.jobs[0].config.stragglers.push_back(
      {.rank = 11, .step_begin = 8, .step_end = 8, .slowdown = 2.5});
  const auto sim = run_cluster_sim(cfg);
  PrismConfig prism_config;
  prism_config.attribute = false;
  const Prism prism(sim.topology, prism_config);
  const auto report = prism.analyze(FlowColumns(sim.trace).view());
  EXPECT_FALSE(report.jobs.front().step_alerts.empty());
  EXPECT_TRUE(report.attribution.incidents.empty());
  EXPECT_EQ(report.telemetry.incidents, 0u);
  EXPECT_EQ(report.telemetry.alerts_explained, 0u);
  EXPECT_EQ(report.telemetry.alerts_orphaned, 0u);
}

TEST(AttributionTest, StragglerBlamesInjectedRank) {
  const auto cfg = straggler_config();
  const auto sim = run_cluster_sim(cfg);
  ASSERT_EQ(sim.anomalies.size(), 1u);
  EXPECT_EQ(sim.anomalies[0].kind, AnomalyKind::kStraggler);

  const Prism prism(sim.topology);
  const auto report = prism.analyze(FlowColumns(sim.trace).view());
  ASSERT_EQ(report.attribution.incidents.size(), 1u);
  const AttributedIncident& incident = report.attribution.incidents[0];
  EXPECT_EQ(incident.job, JobId(0));
  EXPECT_LE(incident.step_begin, std::size_t{8});
  EXPECT_GE(incident.step_end, std::size_t{8});

  // The top-ranked culprit (and every co-culprit) must be a rank inside
  // the straggler's TP stage group — TP is intra-machine and therefore
  // flow-invisible, so the stage is the finest reachable localization.
  const auto siblings = stage_gpus(
      sim.jobs[0], cfg.jobs[0].config.parallelism, /*dp_idx=*/1,
      /*pp_idx=*/0);
  ASSERT_FALSE(incident.culprits.empty());
  const std::unordered_set<GpuId> sibling_set(siblings.begin(),
                                              siblings.end());
  for (const Culprit& c : incident.culprits) {
    EXPECT_EQ(c.kind, CulpritKind::kRank);
    EXPECT_TRUE(sibling_set.contains(c.gpu)) << "gpu " << c.gpu;
    EXPECT_GT(c.score, 0.0);
  }
  EXPECT_GT(incident.confidence, 0.5);

  // Downstream PP/DP ranks are victims, never origins.
  EXPECT_FALSE(incident.victims.empty());
  bool cross_stage_victim = false;
  for (const Victim& v : incident.victims) {
    EXPECT_EQ(v.kind, VictimKind::kStepAlert);
    EXPECT_FALSE(sibling_set.contains(v.gpu)) << "origin listed as victim";
    EXPECT_GE(v.hops, 1u) << "victim should be reachable from the origin";
    if (!sibling_set.contains(v.gpu)) cross_stage_victim = true;
  }
  EXPECT_TRUE(cross_stage_victim);

  EXPECT_EQ(report.telemetry.incidents, 1u);
  EXPECT_EQ(report.telemetry.alerts_orphaned, 0u);
  EXPECT_GT(report.telemetry.alerts_explained, 0u);
}

TEST(AttributionTest, SlowDpGroupBlamesInjectedRing) {
  const auto cfg = slow_ring_config();
  const SlowDpGroupSpec& fault = cfg.jobs[0].config.slow_dp_groups[0];
  const auto sim = run_cluster_sim(cfg);
  ASSERT_EQ(sim.anomalies.size(), 1u);
  EXPECT_EQ(sim.anomalies[0].kind, AnomalyKind::kSlowDpGroup);

  const Prism prism(sim.topology);
  const auto report = prism.analyze(FlowColumns(sim.trace).view());
  ASSERT_FALSE(report.attribution.incidents.empty());

  const AttributedIncident* ring_incident = nullptr;
  for (const AttributedIncident& incident : report.attribution.incidents) {
    if (incident.culprits.front().kind == CulpritKind::kDpGroup) {
      ring_incident = &incident;
      break;
    }
  }
  ASSERT_NE(ring_incident, nullptr) << "no DP-group-origin incident";
  EXPECT_EQ(ring_incident->job, JobId(0));
  EXPECT_LE(ring_incident->step_begin, std::size_t{11});
  EXPECT_GE(ring_incident->step_end, std::size_t{10});

  // Map the blamed component back to GPU ids: it must be exactly the
  // injected ring's membership.
  const auto& components =
      report.jobs.front().comm_types.dp_components;
  const std::size_t blamed = ring_incident->culprits.front().dp_group_index;
  ASSERT_LT(blamed, components.size());
  const auto truth_ring = ring_gpus(
      sim.jobs[0], cfg.jobs[0].config.parallelism, fault.tp_idx,
      fault.pp_idx);
  EXPECT_EQ(components[blamed], truth_ring);

  // Ring members' own step alerts are origin evidence; every victim is a
  // non-member stalled behind the slow collective.
  const std::unordered_set<GpuId> member_set(truth_ring.begin(),
                                             truth_ring.end());
  for (const Victim& v : ring_incident->victims) {
    if (v.kind != VictimKind::kStepAlert) continue;
    EXPECT_FALSE(member_set.contains(v.gpu)) << "origin listed as victim";
  }
  EXPECT_GE(ring_incident->evidence.group_alerts, 1u);
  EXPECT_EQ(report.telemetry.alerts_orphaned, 0u);
}

TEST(AttributionTest, DegradedSwitchBlamesInjectedSwitch) {
  const auto sim = run_cluster_sim(degraded_switch_config());
  ASSERT_EQ(sim.anomalies.size(), 1u);
  EXPECT_EQ(sim.anomalies[0].kind, AnomalyKind::kDegradedSwitch);

  const Prism prism(sim.topology);
  const auto report = prism.analyze(FlowColumns(sim.trace).view());
  ASSERT_FALSE(report.switch_bandwidth_alerts.empty());

  const AttributedIncident* switch_incident = nullptr;
  for (const AttributedIncident& incident : report.attribution.incidents) {
    if (incident.culprits.front().kind == CulpritKind::kSwitch) {
      switch_incident = &incident;
      break;
    }
  }
  ASSERT_NE(switch_incident, nullptr) << "no switch-origin incident";
  EXPECT_EQ(switch_incident->culprits.front().switch_id,
            sim.anomalies[0].switch_id);
  // A degraded switch is a cluster-level fault, owned by no tenant.
  EXPECT_FALSE(switch_incident->job.valid());
  EXPECT_GT(switch_incident->culprits.front().score, 0.0);
  EXPECT_GE(switch_incident->evidence.switch_bandwidth_alerts, 1u);
}

TEST(AttributionTest, TwoSimultaneousFaultsSeparateIncidents) {
  const auto cfg = two_fault_config();
  const StragglerSpec& straggler = cfg.jobs[0].config.stragglers[0];
  const SlowDpGroupSpec& slow_group = cfg.jobs[0].config.slow_dp_groups[0];
  const auto sim = run_cluster_sim(cfg);
  ASSERT_EQ(sim.anomalies.size(), 2u);

  const Prism prism(sim.topology);
  const auto report = prism.analyze(FlowColumns(sim.trace).view());
  ASSERT_GE(report.attribution.incidents.size(), 2u);

  const auto siblings = stage_gpus(
      sim.jobs[0], cfg.jobs[0].config.parallelism, /*dp_idx=*/0,
      /*pp_idx=*/0);
  const std::unordered_set<GpuId> sibling_set(siblings.begin(),
                                              siblings.end());
  const auto truth_ring = ring_gpus(
      sim.jobs[0], cfg.jobs[0].config.parallelism, slow_group.tp_idx,
      slow_group.pp_idx);

  bool straggler_attributed = false;
  bool ring_attributed = false;
  for (const AttributedIncident& incident : report.attribution.incidents) {
    const Culprit& origin = incident.culprits.front();
    if (origin.kind == CulpritKind::kRank &&
        incident.step_begin <= straggler.step_begin &&
        incident.step_end >= straggler.step_begin &&
        sibling_set.contains(origin.gpu)) {
      straggler_attributed = true;
      for (const Victim& v : incident.victims) {
        EXPECT_FALSE(sibling_set.contains(v.gpu));
      }
    }
    if (origin.kind == CulpritKind::kDpGroup) {
      const auto& components =
          report.jobs.front().comm_types.dp_components;
      ASSERT_LT(origin.dp_group_index, components.size());
      if (components[origin.dp_group_index] == truth_ring &&
          incident.step_end >= slow_group.step_begin &&
          incident.step_begin <= slow_group.step_end) {
        ring_attributed = true;
      }
    }
  }
  EXPECT_TRUE(straggler_attributed)
      << "straggler fault not attributed to its stage";
  EXPECT_TRUE(ring_attributed) << "slow ring not attributed";
}

// --- the pool form against the null-pool form ---------------------------

/// attribute() over an analyzed report's jobs and switch alerts.
AttributionResult attribute_report(const PrismReport& report,
                                   ThreadPool* pool) {
  std::vector<JobAttributionInput> inputs;
  for (const JobAnalysis& job : report.jobs) {
    inputs.push_back(JobAttributionInput{.id = job.id,
                                         .trace = &job.trace,
                                         .comm_types = &job.comm_types,
                                         .timelines = job.timelines,
                                         .step_alerts = job.step_alerts,
                                         .group_alerts = job.group_alerts});
  }
  return Attributor{}.attribute(inputs, report.switch_bandwidth_alerts,
                                report.switch_concurrency_alerts, pool);
}

/// The report of one analysis at `num_threads` lanes.
PrismReport analyze_sim(const ClusterSimConfig& cfg,
                        std::size_t num_threads = 1) {
  const auto sim = run_cluster_sim(cfg);
  PrismConfig config;
  config.num_threads = num_threads;
  const Prism prism(sim.topology, config);
  return prism.analyze(FlowColumns(sim.trace).view());
}

/// Every lane count gives the null-pool incidents and telemetry, which
/// are also what Prism::analyze reported.
void expect_pool_matches_serial(const PrismReport& report) {
  const AttributionResult serial = attribute_report(report, nullptr);
  EXPECT_EQ(serial.incidents, report.attribution.incidents);
  EXPECT_EQ(serial.telemetry, report.attribution.telemetry);
  for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(lanes);
    ThreadPool pool(lanes - 1);
    const AttributionResult pooled = attribute_report(report, &pool);
    EXPECT_EQ(pooled.incidents, serial.incidents);
    EXPECT_EQ(pooled.telemetry, serial.telemetry);
  }
}

TEST(AttributionPoolTest, StragglerMatchesSerialAtEveryLaneCount) {
  const PrismReport report = analyze_sim(straggler_config(), 4);
  ASSERT_FALSE(report.attribution.incidents.empty());
  expect_pool_matches_serial(report);
}

TEST(AttributionPoolTest, SlowRingMatchesSerialAtEveryLaneCount) {
  const PrismReport report = analyze_sim(slow_ring_config(), 4);
  ASSERT_FALSE(report.attribution.incidents.empty());
  expect_pool_matches_serial(report);
}

TEST(AttributionPoolTest, DegradedSwitchMatchesSerialAtEveryLaneCount) {
  const PrismReport report = analyze_sim(degraded_switch_config(), 4);
  ASSERT_FALSE(report.attribution.incidents.empty());
  expect_pool_matches_serial(report);
}

TEST(AttributionPoolTest, TwoFaultsMatchSerialAtEveryLaneCount) {
  const PrismReport report = analyze_sim(two_fault_config(), 4);
  ASSERT_GE(report.attribution.incidents.size(), 2u);
  expect_pool_matches_serial(report);
}

TEST(AttributionPoolTest, FullyClaimedStepAlertsSkipSelfTimes) {
  // Every step alert of the slow-ring window is claimed by the ring's
  // incident, so no flagged step is left to trace to a rank and the
  // self-time series are never computed: no rank incident, nothing
  // orphaned, and still the serial result at every lane count.
  const PrismReport report = analyze_sim(slow_ring_config());
  ASSERT_FALSE(report.jobs.front().step_alerts.empty());
  for (const AttributedIncident& incident : report.attribution.incidents) {
    EXPECT_NE(incident.culprits.front().kind, CulpritKind::kRank);
  }
  EXPECT_EQ(report.attribution.telemetry.alerts_orphaned, 0u);
  expect_pool_matches_serial(report);
}

// --- direct unit coverage of the exposed building blocks ---------------

TEST(AttributionUnitTest, StepSelfTimesCountsComputeBeforeSends) {
  GpuTimeline t;
  t.gpu = GpuId(0);
  t.steps.push_back({.index = 0, .begin = 0, .end = 100 * kMillisecond});
  t.steps.push_back(
      {.index = 1, .begin = 100 * kMillisecond, .end = 200 * kMillisecond});
  const auto ev = [](TimelineEventKind k, TimeNs a, TimeNs b) {
    return TimelineEvent{.kind = k, .start = a, .end = b, .peer = GpuId(1)};
  };
  using K = TimelineEventKind;
  // step 0: compute then send (counted), recv then send (not counted)
  t.events.push_back(ev(K::kCompute, 0, 30 * kMillisecond));
  t.events.push_back(ev(K::kPpSend, 30 * kMillisecond, 35 * kMillisecond));
  t.events.push_back(ev(K::kPpRecv, 40 * kMillisecond, 45 * kMillisecond));
  t.events.push_back(ev(K::kPpSend, 45 * kMillisecond, 50 * kMillisecond));
  // step 1: two compute+send handoffs
  t.events.push_back(
      ev(K::kCompute, 100 * kMillisecond, 110 * kMillisecond));
  t.events.push_back(ev(K::kPpSend, 110 * kMillisecond, 112 * kMillisecond));
  t.events.push_back(
      ev(K::kCompute, 120 * kMillisecond, 145 * kMillisecond));
  t.events.push_back(ev(K::kPpSend, 145 * kMillisecond, 147 * kMillisecond));

  const auto self = Attributor::step_self_times(t);
  ASSERT_EQ(self.size(), 2u);
  EXPECT_NEAR(self[0], 0.030, 1e-9);
  EXPECT_NEAR(self[1], 0.035, 1e-9);
}

TEST(AttributionUnitTest, GroupSwitchSetsUseOnlyIntraComponentFlows) {
  // Components {0,1} and {2,3}; a PP-like flow 1->2 must not contribute.
  const std::vector<std::vector<GpuId>> components = {
      {GpuId(0), GpuId(1)}, {GpuId(2), GpuId(3)}};
  FlowTrace trace;
  const auto flow = [](std::uint32_t src, std::uint32_t dst, TimeNs at,
                       std::initializer_list<std::uint32_t> switches) {
    FlowRecord f;
    f.start_time = at;
    f.src = GpuId(src);
    f.dst = GpuId(dst);
    f.bytes = 1000;
    f.duration = kMillisecond;
    for (const std::uint32_t s : switches) f.switches.push_back(SwitchId(s));
    return f;
  };
  trace.add(flow(0, 1, 0, {0, 2, 1}));
  trace.add(flow(1, 2, 10, {1}));      // cross-component: ignored
  trace.add(flow(3, 2, 20, {1, 3}));
  trace.add(flow(1, 0, 30, {0}));

  const auto sets =
      Attributor::group_switch_sets(FlowColumns(trace).view(), components);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0],
            (std::vector<SwitchId>{SwitchId(0), SwitchId(1), SwitchId(2)}));
  EXPECT_EQ(sets[1], (std::vector<SwitchId>{SwitchId(1), SwitchId(3)}));
}

}  // namespace
}  // namespace llmprism
