// Differential tests for the parallel per-job pipeline: the full
// PrismReport produced with num_threads in {2, 4, 8} must be
// field-for-field identical to the sequential num_threads = 1 path —
// including alert ordering and the cluster-wide switch_bandwidth_gbps
// series — on cluster mixes of 1, 3, and 8 jobs with collection noise and
// injected faults. The same holds for OnlineMonitor ticks when several
// windows of one batch are analyzed concurrently.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "llmprism/core/monitor.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/export/journal.hpp"
#include "llmprism/export/perfetto.hpp"
#include "llmprism/export/series.hpp"
#include "llmprism/export/view.hpp"
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

NoiseConfig collection_noise() {
  NoiseConfig noise;
  noise.drop_rate = 0.02;
  noise.duplicate_rate = 0.01;
  noise.size_jitter_rate = 0.1;
  noise.partial_record_rate = 0.01;
  noise.time_jitter = 50 * kMicrosecond;
  noise.degraded_pair_fraction = 0.1;
  return noise;
}

ClusterSimConfig one_job_mix() {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 4, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  auto j = job(8, 2, 2, 14);
  j.stragglers.push_back(
      {.rank = 3, .step_begin = 8, .step_end = 9, .slowdown = 2.5});
  cfg.jobs.push_back({j, {}});
  cfg.noise = collection_noise();
  cfg.seed = 11;
  return cfg;
}

ClusterSimConfig three_job_mix() {
  ClusterSimConfig cfg;
  // machines_per_leaf = 2 yields 6 leaves + 4 spines: enough switches for
  // the cross-switch k-sigma rule (min_samples = 6) to engage, so the
  // injected degradation below actually produces switch alerts to compare.
  cfg.topology = {.num_machines = 12, .gpus_per_machine = 8,
                  .machines_per_leaf = 2, .num_spines = 4};
  auto j0 = job(8, 2, 2, 12);
  j0.stragglers.push_back(
      {.rank = 1, .step_begin = 7, .step_end = 7, .slowdown = 3.0});
  cfg.jobs.push_back({j0, {}});
  cfg.jobs.push_back({job(8, 4, 1, 12), {}});
  cfg.jobs.push_back({job(4, 2, 2, 12), {}});
  cfg.noise = collection_noise();
  cfg.switch_faults.push_back(
      {SwitchId(0), TimeWindow{0, 600 * kSecond}, 0.3});
  cfg.seed = 12;
  return cfg;
}

// One job occupying the whole cluster. With a single job, the per-job
// fan-out degenerates to one task, so any thread-count dependence here can
// only come from the INTRA-job parallelism (per-pair comm classification
// and per-GPU timeline assembly sharing the pool) — the scenario the
// per-job mixes above cannot isolate.
ClusterSimConfig huge_job_mix() {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 16, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  auto j = job(8, 8, 2, 12);
  j.stragglers.push_back(
      {.rank = 5, .step_begin = 6, .step_end = 7, .slowdown = 2.5});
  j.slow_dp_groups.push_back({.tp_idx = 2, .pp_idx = 1, .step_begin = 4,
                              .step_end = 5, .slowdown = 3.0});
  cfg.jobs.push_back({j, {}});
  cfg.noise = collection_noise();
  cfg.switch_faults.push_back(
      {SwitchId(1), TimeWindow{0, 600 * kSecond}, 0.3});
  cfg.seed = 14;
  return cfg;
}

ClusterSimConfig eight_job_mix() {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 16, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  for (std::uint32_t i = 0; i < 8; ++i) {
    auto j = job(8, 2, 1, 10);
    if (i == 2) {
      j.stragglers.push_back(
          {.rank = 0, .step_begin = 6, .step_end = 6, .slowdown = 2.5});
    }
    if (i == 5) {
      j.slow_dp_groups.push_back(
          {.tp_idx = 1, .pp_idx = 0, .step_begin = 5, .step_end = 7,
           .slowdown = 3.0});
    }
    cfg.jobs.push_back({j, {}});
  }
  cfg.noise = collection_noise();
  cfg.switch_faults.push_back(
      {SwitchId(2), TimeWindow{0, 600 * kSecond}, 0.25});
  cfg.seed = 13;
  return cfg;
}

PrismConfig prism_config(std::size_t num_threads) {
  PrismConfig cfg;
  cfg.num_threads = num_threads;
  return cfg;
}

// --- field-for-field comparison helpers -----------------------------------

void expect_traces_equal(const FlowColumns& a, const FlowColumns& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "flow " << i;
  }
}

void expect_recognized_jobs_equal(const RecognizedJob& a,
                                  const RecognizedJob& b) {
  EXPECT_EQ(a.gpus, b.gpus);
  EXPECT_EQ(a.observed_gpus, b.observed_gpus);
  EXPECT_EQ(a.machines, b.machines);
  EXPECT_EQ(a.cross_machine_clusters, b.cross_machine_clusters);
}

void expect_comm_types_equal(const CommTypeResult& a, const CommTypeResult& b) {
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(i));
    EXPECT_EQ(a.pairs[i].pair, b.pairs[i].pair);
    EXPECT_EQ(a.pairs[i].type, b.pairs[i].type);
    EXPECT_EQ(a.pairs[i].pre_refinement_type, b.pairs[i].pre_refinement_type);
    EXPECT_EQ(a.pairs[i].num_flows, b.pairs[i].num_flows);
    EXPECT_EQ(a.pairs[i].num_steps_observed, b.pairs[i].num_steps_observed);
  }
  EXPECT_EQ(a.dp_components, b.dp_components);
}

void expect_inferred_equal(const InferredParallelism& a,
                           const InferredParallelism& b) {
  EXPECT_EQ(a.world_size, b.world_size);
  EXPECT_EQ(a.dp, b.dp);
  EXPECT_EQ(a.pp, b.pp);
  EXPECT_EQ(a.tp, b.tp);
  EXPECT_EQ(a.micro_batches, b.micro_batches);
  EXPECT_EQ(a.dp_groups_uniform, b.dp_groups_uniform);
  EXPECT_EQ(a.pp_chains_uniform, b.pp_chains_uniform);
  EXPECT_EQ(a.divides_world, b.divides_world);
  EXPECT_EQ(a.dp_groups_complete, b.dp_groups_complete);
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

// Alert comparisons check ORDER as well: alerts must come out in the same
// sequence, not merely as equal sets. Doubles compare exactly — the
// parallel path must be bit-identical, not approximately equal.
void expect_alerts_equal(const std::vector<StepAlert>& a,
                         const std::vector<StepAlert>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("step alert " + std::to_string(i));
    EXPECT_EQ(a[i].gpu, b[i].gpu);
    EXPECT_EQ(a[i].step_index, b[i].step_index);
    EXPECT_EQ(a[i].duration_s, b[i].duration_s);
    EXPECT_EQ(a[i].mean_s, b[i].mean_s);
    EXPECT_EQ(a[i].threshold_s, b[i].threshold_s);
  }
}

void expect_alerts_equal(const std::vector<GroupAlert>& a,
                         const std::vector<GroupAlert>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("group alert " + std::to_string(i));
    EXPECT_EQ(a[i].group_index, b[i].group_index);
    EXPECT_EQ(a[i].step_index, b[i].step_index);
    EXPECT_EQ(a[i].duration_s, b[i].duration_s);
    EXPECT_EQ(a[i].mean_s, b[i].mean_s);
    EXPECT_EQ(a[i].threshold_s, b[i].threshold_s);
  }
}

void expect_alerts_equal(const std::vector<SwitchBandwidthAlert>& a,
                         const std::vector<SwitchBandwidthAlert>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("switch bandwidth alert " + std::to_string(i));
    EXPECT_EQ(a[i].switch_id, b[i].switch_id);
    EXPECT_EQ(a[i].bandwidth_gbps, b[i].bandwidth_gbps);
    EXPECT_EQ(a[i].mean_gbps, b[i].mean_gbps);
    EXPECT_EQ(a[i].threshold_gbps, b[i].threshold_gbps);
  }
}

void expect_alerts_equal(const std::vector<SwitchConcurrencyAlert>& a,
                         const std::vector<SwitchConcurrencyAlert>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("switch concurrency alert " + std::to_string(i));
    EXPECT_EQ(a[i].switch_id, b[i].switch_id);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].concurrent_flows, b[i].concurrent_flows);
    EXPECT_EQ(a[i].limit, b[i].limit);
  }
}

// Attributed incidents inherit every upstream ordering guarantee: culprit
// ranking, victim order, confidences, and the explained/orphaned counters
// must be bit-identical regardless of thread count.
void expect_attribution_equal(const AttributionResult& a,
                              const AttributionResult& b) {
  ASSERT_EQ(a.incidents.size(), b.incidents.size());
  for (std::size_t i = 0; i < a.incidents.size(); ++i) {
    SCOPED_TRACE("incident " + std::to_string(i));
    const AttributedIncident& ia = a.incidents[i];
    const AttributedIncident& ib = b.incidents[i];
    EXPECT_EQ(ia.job, ib.job);
    EXPECT_EQ(ia.step_begin, ib.step_begin);
    EXPECT_EQ(ia.step_end, ib.step_end);
    EXPECT_EQ(ia.confidence, ib.confidence);
    ASSERT_EQ(ia.culprits.size(), ib.culprits.size());
    for (std::size_t c = 0; c < ia.culprits.size(); ++c) {
      SCOPED_TRACE("culprit " + std::to_string(c));
      EXPECT_EQ(ia.culprits[c].kind, ib.culprits[c].kind);
      EXPECT_EQ(ia.culprits[c].gpu, ib.culprits[c].gpu);
      EXPECT_EQ(ia.culprits[c].dp_group_index, ib.culprits[c].dp_group_index);
      EXPECT_EQ(ia.culprits[c].switch_id, ib.culprits[c].switch_id);
      EXPECT_EQ(ia.culprits[c].score, ib.culprits[c].score);
    }
    ASSERT_EQ(ia.victims.size(), ib.victims.size());
    for (std::size_t v = 0; v < ia.victims.size(); ++v) {
      SCOPED_TRACE("victim " + std::to_string(v));
      EXPECT_EQ(ia.victims[v].kind, ib.victims[v].kind);
      EXPECT_EQ(ia.victims[v].job, ib.victims[v].job);
      EXPECT_EQ(ia.victims[v].gpu, ib.victims[v].gpu);
      EXPECT_EQ(ia.victims[v].dp_group_index, ib.victims[v].dp_group_index);
      EXPECT_EQ(ia.victims[v].step_index, ib.victims[v].step_index);
      EXPECT_EQ(ia.victims[v].hops, ib.victims[v].hops);
    }
    EXPECT_EQ(ia.evidence.step_alerts, ib.evidence.step_alerts);
    EXPECT_EQ(ia.evidence.group_alerts, ib.evidence.group_alerts);
    EXPECT_EQ(ia.evidence.switch_bandwidth_alerts,
              ib.evidence.switch_bandwidth_alerts);
    EXPECT_EQ(ia.evidence.switch_concurrency_alerts,
              ib.evidence.switch_concurrency_alerts);
  }
  EXPECT_EQ(a.telemetry.alerts_explained, b.telemetry.alerts_explained);
  EXPECT_EQ(a.telemetry.alerts_orphaned, b.telemetry.alerts_orphaned);
}

// The telemetry block must be bit-identical too: it is built from
// deterministic per-job event counts folded in job-id order, never from
// scheduling-dependent state (ISSUE 2's acceptance criterion).
void expect_telemetry_equal(const ReportTelemetry& a,
                            const ReportTelemetry& b) {
  EXPECT_EQ(a.flows_total, b.flows_total);
  EXPECT_EQ(a.flows_routed, b.flows_routed);
  EXPECT_EQ(a.flows_routed_via_dst, b.flows_routed_via_dst);
  EXPECT_EQ(a.flows_unattributed, b.flows_unattributed);
  EXPECT_EQ(a.pairs_classified, b.pairs_classified);
  EXPECT_EQ(a.pairs_dp, b.pairs_dp);
  EXPECT_EQ(a.pairs_pp, b.pairs_pp);
  EXPECT_EQ(a.refinement_flips, b.refinement_flips);
  EXPECT_EQ(a.artifact_size_clusters, b.artifact_size_clusters);
  EXPECT_EQ(a.artifact_flows, b.artifact_flows);
  EXPECT_EQ(a.artifact_segments, b.artifact_segments);
  EXPECT_EQ(a.bocd_observations, b.bocd_observations);
  EXPECT_EQ(a.bocd_boundaries, b.bocd_boundaries);
  EXPECT_EQ(a.bocd_hard_resets, b.bocd_hard_resets);
  EXPECT_EQ(a.timelines_reconstructed, b.timelines_reconstructed);
  EXPECT_EQ(a.timeline_events, b.timeline_events);
  EXPECT_EQ(a.steps_reconstructed, b.steps_reconstructed);
  EXPECT_EQ(a.ksigma_series, b.ksigma_series);
  EXPECT_EQ(a.ksigma_points, b.ksigma_points);
  EXPECT_EQ(a.ksigma_alerts, b.ksigma_alerts);
  EXPECT_EQ(a.incidents, b.incidents);
  EXPECT_EQ(a.alerts_explained, b.alerts_explained);
  EXPECT_EQ(a.alerts_orphaned, b.alerts_orphaned);
}

void expect_reports_equal(const PrismReport& a, const PrismReport& b) {
  EXPECT_EQ(a.recognition.num_cross_machine_clusters,
            b.recognition.num_cross_machine_clusters);
  ASSERT_EQ(a.recognition.jobs.size(), b.recognition.jobs.size());
  for (std::size_t j = 0; j < a.recognition.jobs.size(); ++j) {
    SCOPED_TRACE("recognized job " + std::to_string(j));
    expect_recognized_jobs_equal(a.recognition.jobs[j], b.recognition.jobs[j]);
  }

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    const JobAnalysis& ja = a.jobs[j];
    const JobAnalysis& jb = b.jobs[j];
    EXPECT_EQ(ja.id, jb.id);
    expect_recognized_jobs_equal(ja.job, jb.job);
    expect_traces_equal(ja.trace, jb.trace);
    expect_comm_types_equal(ja.comm_types, jb.comm_types);
    expect_inferred_equal(ja.inferred, jb.inferred);
    ASSERT_EQ(ja.timelines.size(), jb.timelines.size());
    for (std::size_t t = 0; t < ja.timelines.size(); ++t) {
      SCOPED_TRACE("timeline " + std::to_string(t));
      expect_timelines_equal(ja.timelines[t], jb.timelines[t]);
    }
    expect_alerts_equal(ja.step_alerts, jb.step_alerts);
    expect_alerts_equal(ja.group_alerts, jb.group_alerts);
  }

  EXPECT_EQ(a.switch_bandwidth_gbps, b.switch_bandwidth_gbps);
  expect_alerts_equal(a.switch_bandwidth_alerts, b.switch_bandwidth_alerts);
  expect_alerts_equal(a.switch_concurrency_alerts,
                      b.switch_concurrency_alerts);
  expect_attribution_equal(a.attribution, b.attribution);
  expect_telemetry_equal(a.telemetry, b.telemetry);
}

// --- fixtures: each mix is simulated and sequentially analyzed once -------

struct MixData {
  ClusterSimResult sim;
  PrismReport baseline;  ///< num_threads = 1
};

MixData make_mix(const ClusterSimConfig& cfg) {
  MixData mix{run_cluster_sim(cfg), {}};
  mix.baseline = Prism(mix.sim.topology, prism_config(1))
                     .analyze(mix.sim.trace.view());
  return mix;
}

const MixData& one_job() {
  static const MixData mix = make_mix(one_job_mix());
  return mix;
}
const MixData& three_jobs() {
  static const MixData mix = make_mix(three_job_mix());
  return mix;
}
const MixData& eight_jobs() {
  static const MixData mix = make_mix(eight_job_mix());
  return mix;
}
const MixData& huge_job() {
  static const MixData mix = make_mix(huge_job_mix());
  return mix;
}

class ParallelEquivalenceTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelEquivalenceTest, OneJobMix) {
  const MixData& mix = one_job();
  const Prism prism(mix.sim.topology, prism_config(GetParam()));
  expect_reports_equal(
      mix.baseline, prism.analyze(mix.sim.trace.view()));
}

TEST_P(ParallelEquivalenceTest, ThreeJobMix) {
  const MixData& mix = three_jobs();
  const Prism prism(mix.sim.topology, prism_config(GetParam()));
  expect_reports_equal(
      mix.baseline, prism.analyze(mix.sim.trace.view()));
}

TEST_P(ParallelEquivalenceTest, EightJobMix) {
  const MixData& mix = eight_jobs();
  const Prism prism(mix.sim.topology, prism_config(GetParam()));
  expect_reports_equal(
      mix.baseline, prism.analyze(mix.sim.trace.view()));
}

TEST_P(ParallelEquivalenceTest, HugeSingleJobMix) {
  const MixData& mix = huge_job();
  const Prism prism(mix.sim.topology, prism_config(GetParam()));
  expect_reports_equal(
      mix.baseline, prism.analyze(mix.sim.trace.view()));
}

// Guard against the single-job differential passing vacuously: the mix
// must really be one job, large enough that the intra-job fan-out has many
// pairs and GPUs to chew on, and it must produce findings.
TEST(ParallelEquivalenceCoverageTest, HugeJobIsOneJobWithFindings) {
  const MixData& mix = huge_job();
  ASSERT_EQ(mix.baseline.jobs.size(), 1u);
  const JobAnalysis& j = mix.baseline.jobs.front();
  EXPECT_GE(j.comm_types.pairs.size(), 100u)
      << "the per-pair fan-out needs real width";
  EXPECT_GE(j.timelines.size(), 100u)
      << "the per-GPU fan-out needs real width";
  EXPECT_GT(j.step_alerts.size() + j.group_alerts.size(), 0u);
  EXPECT_GT(mix.baseline.telemetry.bocd_observations, 0u);
}

// The eight-job mix actually produces the alerts whose ordering the
// comparisons above pin down — guard against the differential passing
// vacuously on all-empty reports.
TEST(ParallelEquivalenceCoverageTest, MixesProduceFindings) {
  const MixData& mix = eight_jobs();
  ASSERT_EQ(mix.baseline.jobs.size(), 8u);
  std::size_t step_alerts = 0;
  for (const JobAnalysis& j : mix.baseline.jobs) {
    step_alerts += j.step_alerts.size();
  }
  EXPECT_GT(step_alerts, 0u);
  EXPECT_FALSE(mix.baseline.switch_bandwidth_gbps.empty());
  EXPECT_FALSE(three_jobs().baseline.switch_bandwidth_alerts.empty());
  // Every switch bandwidth alert must be explained by a cluster-level
  // incident, so the incident comparison above cannot pass vacuously.
  EXPECT_FALSE(three_jobs().baseline.attribution.incidents.empty());
  EXPECT_GT(mix.baseline.telemetry.alerts_explained +
                mix.baseline.telemetry.alerts_orphaned,
            0u);
}

// The telemetry comparison must not pass vacuously either: the mixes have
// to exercise every counted stage.
TEST(ParallelEquivalenceCoverageTest, TelemetryCountsAreNonTrivial) {
  const ReportTelemetry& t = eight_jobs().baseline.telemetry;
  EXPECT_GT(t.flows_total, 0u);
  EXPECT_GT(t.flows_routed, 0u);
  EXPECT_EQ(t.flows_total, t.flows_routed + t.flows_unattributed);
  // The internal recognizer unions both endpoints of every flow, so the
  // dst fallback never has to fire on recognizer-produced jobs; it exists
  // for half-recognized jobs (see tests/test_flow_router.cpp).
  EXPECT_EQ(t.flows_routed_via_dst, 0u);
  EXPECT_LE(t.flows_routed_via_dst, t.flows_routed);
  EXPECT_GT(t.pairs_classified, 0u);
  EXPECT_EQ(t.pairs_classified, t.pairs_dp + t.pairs_pp);
  EXPECT_GT(t.bocd_observations, 0u);
  EXPECT_GT(t.bocd_boundaries, 0u);
  EXPECT_GT(t.timelines_reconstructed, 0u);
  EXPECT_GT(t.timeline_events, 0u);
  EXPECT_GT(t.steps_reconstructed, 0u);
  EXPECT_GT(t.ksigma_series, 0u);
  EXPECT_GT(t.ksigma_points, 0u);
  EXPECT_GT(t.ksigma_alerts, 0u) << "the mix injects detectable faults";
}

// OnlineMonitor: a batch completing several windows analyzes them
// concurrently; ticks, stable ids, and stats must match the sequential
// monitor exactly.
TEST_P(ParallelEquivalenceTest, MonitorBatchOfWindows) {
  const MixData& mix = one_job();

  MonitorConfig seq_cfg;
  seq_cfg.window = 2 * kSecond;
  seq_cfg.prism.num_threads = 1;
  MonitorConfig par_cfg = seq_cfg;
  par_cfg.prism.num_threads = GetParam();

  OnlineMonitor sequential(mix.sim.topology, seq_cfg);
  OnlineMonitor parallel(mix.sim.topology, par_cfg);

  auto expected = sequential.ingest(mix.sim.trace);
  if (const auto last = sequential.flush()) expected.push_back(*last);
  auto got = parallel.ingest(mix.sim.trace);
  if (const auto last = parallel.flush()) got.push_back(*last);

  ASSERT_GE(expected.size(), 3u) << "mix must span several windows";
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("tick " + std::to_string(i));
    EXPECT_EQ(got[i].window.begin, expected[i].window.begin);
    EXPECT_EQ(got[i].window.end, expected[i].window.end);
    EXPECT_EQ(got[i].job_ids, expected[i].job_ids);
    expect_reports_equal(expected[i].report, got[i].report);
  }

  const MonitorStats& sa = sequential.stats();
  const MonitorStats& sb = parallel.stats();
  EXPECT_EQ(sa.flows_ingested, sb.flows_ingested);
  EXPECT_EQ(sa.flows_dropped_late, sb.flows_dropped_late);
  EXPECT_EQ(sa.windows_completed, sb.windows_completed);
  EXPECT_EQ(sa.stable_ids_created, sb.stable_ids_created);
  EXPECT_EQ(sa.step_alerts, sb.step_alerts);
  EXPECT_EQ(sa.group_alerts, sb.group_alerts);
  EXPECT_EQ(sa.switch_bandwidth_alerts, sb.switch_bandwidth_alerts);
  EXPECT_EQ(sa.switch_concurrency_alerts, sb.switch_concurrency_alerts);
  EXPECT_EQ(sa.job_windows, sb.job_windows);
}

/// Renders all three job-facing exports of a tick sequence into one
/// string, so equivalence can be asserted byte-for-byte.
std::string render_exports(const std::vector<MonitorTick>& ticks) {
  PerfettoExporter perfetto;
  JobSeriesCollector series;
  IncidentJournal journal;
  for (const MonitorTick& tick : ticks) {
    const WindowExportView view = export_view(tick);
    perfetto.add_window(view);
    series.add_window(view);
    journal.add_window(view);
  }
  journal.finish();
  std::ostringstream os;
  perfetto.write(os);
  series.write_openmetrics(os);
  series.write_jsonl(os);
  journal.write_jsonl(os);
  return os.str();
}

// The exports are pure functions of the tick sequence, so they must be
// byte-identical whichever thread count produced the ticks.
TEST_P(ParallelEquivalenceTest, ExportsAreByteIdenticalAcrossThreads) {
  const MixData& mix = three_jobs();

  MonitorConfig seq_cfg;
  seq_cfg.window = 2 * kSecond;
  seq_cfg.prism.num_threads = 1;
  MonitorConfig par_cfg = seq_cfg;
  par_cfg.prism.num_threads = GetParam();

  OnlineMonitor sequential(mix.sim.topology, seq_cfg);
  OnlineMonitor parallel(mix.sim.topology, par_cfg);
  auto expected = sequential.ingest(mix.sim.trace);
  if (const auto last = sequential.flush()) expected.push_back(*last);
  auto got = parallel.ingest(mix.sim.trace);
  if (const auto last = parallel.flush()) got.push_back(*last);

  const std::string baseline = render_exports(expected);
  EXPECT_GT(baseline.size(), 1000u) << "exports must not be vacuously empty";
  EXPECT_EQ(render_exports(got), baseline);
}

// The rendered exports of the huge single job must also be byte-identical
// across thread counts — the end-to-end form of the intra-job determinism
// argument (pre-sized per-pair and per-GPU slots, counters folded in id
// order).
TEST_P(ParallelEquivalenceTest, HugeSingleJobExportsAreByteIdentical) {
  const MixData& mix = huge_job();

  MonitorConfig seq_cfg;
  seq_cfg.window = 2 * kSecond;
  seq_cfg.prism.num_threads = 1;
  MonitorConfig par_cfg = seq_cfg;
  par_cfg.prism.num_threads = GetParam();

  OnlineMonitor sequential(mix.sim.topology, seq_cfg);
  OnlineMonitor parallel(mix.sim.topology, par_cfg);
  auto expected = sequential.ingest(mix.sim.trace);
  if (const auto last = sequential.flush()) expected.push_back(*last);
  auto got = parallel.ingest(mix.sim.trace);
  if (const auto last = parallel.flush()) got.push_back(*last);

  const std::string baseline = render_exports(expected);
  EXPECT_GT(baseline.size(), 1000u) << "exports must not be vacuously empty";
  EXPECT_EQ(render_exports(got), baseline);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelEquivalenceTest,
                         ::testing::Values(2u, 4u, 8u),
                         [](const auto& param_info) {
                           return "Threads" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace llmprism
