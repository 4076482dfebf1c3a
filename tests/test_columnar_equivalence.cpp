// Differential tests for the columnar analysis plane (DESIGN.md §13): the
// PrismReport produced by Prism::analyze(FlowView) over a memory-mapped LFT
// file must be field-for-field identical — jobs, flows, comm types,
// timelines, alerts, incidents, telemetry, and all three job-facing
// exports — to the owning path (the simulator's FlowColumns), at every
// thread count. On a sorted LFT file the view path must also be genuinely
// zero-copy: no physical sort of flow data (`llmprism_flowtrace_sorts_total`
// stays flat). No stage accepts a record array, so no FlowRecord array can
// be materialized on the way. The producers' own bytes are pinned here too
// (ProducerGoldenBytes), and one tie rule across every load path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "llmprism/collector/collector.hpp"
#include "llmprism/collector/packetize.hpp"
#include "llmprism/common/hash.hpp"
#include "llmprism/core/monitor.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/core/render.hpp"
#include "llmprism/export/journal.hpp"
#include "llmprism/export/perfetto.hpp"
#include "llmprism/export/series.hpp"
#include "llmprism/export/view.hpp"
#include "llmprism/flow/io.hpp"
#include "llmprism/flow/lft.hpp"
#include "llmprism/flow/view.hpp"
#include "llmprism/obs/metrics.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

/// Three tenants with collection noise, a straggler, and a degraded
/// switch: the mix produces step alerts, switch alerts, and attributed
/// incidents, so none of the comparisons below can pass vacuously.
ClusterSimConfig noisy_mix() {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 12, .gpus_per_machine = 8,
                  .machines_per_leaf = 2, .num_spines = 4};
  JobSimConfig j0;
  j0.parallelism = {.tp = 8, .dp = 2, .pp = 2, .micro_batches = 4};
  j0.num_steps = 12;
  j0.stragglers.push_back(
      {.rank = 1, .step_begin = 7, .step_end = 7, .slowdown = 3.0});
  cfg.jobs.push_back({j0, {}});
  JobSimConfig j1;
  j1.parallelism = {.tp = 8, .dp = 4, .pp = 1, .micro_batches = 4};
  j1.num_steps = 12;
  cfg.jobs.push_back({j1, {}});
  JobSimConfig j2;
  j2.parallelism = {.tp = 4, .dp = 2, .pp = 2, .micro_batches = 4};
  j2.num_steps = 12;
  cfg.jobs.push_back({j2, {}});
  cfg.noise.drop_rate = 0.02;
  cfg.noise.duplicate_rate = 0.01;
  cfg.noise.size_jitter_rate = 0.1;
  cfg.noise.time_jitter = 50 * kMicrosecond;
  cfg.switch_faults.push_back({SwitchId(0), TimeWindow{0, 600 * kSecond}, 0.3});
  cfg.seed = 31;
  return cfg;
}

/// The simulated mix, its sorted trace serialized once as LFT, and the
/// single-threaded owning-columns report every variant is compared to.
struct Fixture {
  ClusterSimResult sim;
  std::string lft_path;
  PrismReport baseline;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture out{run_cluster_sim(noisy_mix()), {}, {}};
    out.sim.trace.sort();  // the LFT file is written born-sorted
    // Per-process file name: ctest runs each parametrized case as its own
    // process, and concurrent processes must not rewrite each other's file
    // mid-mmap.
    out.lft_path = (std::filesystem::temp_directory_path() /
                    ("llmprism_columnar_equivalence_" +
                     std::to_string(::getpid()) + ".lft"))
                       .string();
    write_lft_file(out.lft_path, out.sim.trace);
    PrismConfig cfg;
    cfg.num_threads = 1;
    out.baseline =
        Prism(out.sim.topology, cfg).analyze(out.sim.trace.view());
    return out;
  }();
  return f;
}

// --- field-for-field comparison -------------------------------------------
// Doubles compare exactly: the view path must be bit-identical to the
// owning-columns path, not approximately equal.

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
    EXPECT_EQ(a.recognition.jobs[j].gpus, b.recognition.jobs[j].gpus);
    EXPECT_EQ(a.recognition.jobs[j].observed_gpus,
              b.recognition.jobs[j].observed_gpus);
    EXPECT_EQ(a.recognition.jobs[j].machines, b.recognition.jobs[j].machines);
    EXPECT_EQ(a.recognition.jobs[j].cross_machine_clusters,
              b.recognition.jobs[j].cross_machine_clusters);
  }

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    const JobAnalysis& ja = a.jobs[j];
    const JobAnalysis& jb = b.jobs[j];
    EXPECT_EQ(ja.id, jb.id);
    ASSERT_EQ(ja.trace.size(), jb.trace.size());
    for (std::size_t i = 0; i < ja.trace.size(); ++i) {
      ASSERT_EQ(ja.trace[i], jb.trace[i]) << "flow " << i;
    }
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
    for (std::size_t i = 0; i < ja.group_alerts.size(); ++i) {
      SCOPED_TRACE("group alert " + std::to_string(i));
      EXPECT_EQ(ja.group_alerts[i].group_index,
                jb.group_alerts[i].group_index);
      EXPECT_EQ(ja.group_alerts[i].step_index, jb.group_alerts[i].step_index);
      EXPECT_EQ(ja.group_alerts[i].duration_s, jb.group_alerts[i].duration_s);
      EXPECT_EQ(ja.group_alerts[i].mean_s, jb.group_alerts[i].mean_s);
      EXPECT_EQ(ja.group_alerts[i].threshold_s,
                jb.group_alerts[i].threshold_s);
    }
  }

  EXPECT_EQ(a.switch_bandwidth_gbps, b.switch_bandwidth_gbps);
  ASSERT_EQ(a.switch_bandwidth_alerts.size(),
            b.switch_bandwidth_alerts.size());
  for (std::size_t i = 0; i < a.switch_bandwidth_alerts.size(); ++i) {
    SCOPED_TRACE("switch bandwidth alert " + std::to_string(i));
    EXPECT_EQ(a.switch_bandwidth_alerts[i].switch_id,
              b.switch_bandwidth_alerts[i].switch_id);
    EXPECT_EQ(a.switch_bandwidth_alerts[i].bandwidth_gbps,
              b.switch_bandwidth_alerts[i].bandwidth_gbps);
    EXPECT_EQ(a.switch_bandwidth_alerts[i].mean_gbps,
              b.switch_bandwidth_alerts[i].mean_gbps);
    EXPECT_EQ(a.switch_bandwidth_alerts[i].threshold_gbps,
              b.switch_bandwidth_alerts[i].threshold_gbps);
  }
  ASSERT_EQ(a.switch_concurrency_alerts.size(),
            b.switch_concurrency_alerts.size());
  for (std::size_t i = 0; i < a.switch_concurrency_alerts.size(); ++i) {
    SCOPED_TRACE("switch concurrency alert " + std::to_string(i));
    EXPECT_EQ(a.switch_concurrency_alerts[i].switch_id,
              b.switch_concurrency_alerts[i].switch_id);
    EXPECT_EQ(a.switch_concurrency_alerts[i].at,
              b.switch_concurrency_alerts[i].at);
    EXPECT_EQ(a.switch_concurrency_alerts[i].concurrent_flows,
              b.switch_concurrency_alerts[i].concurrent_flows);
    EXPECT_EQ(a.switch_concurrency_alerts[i].limit,
              b.switch_concurrency_alerts[i].limit);
  }

  // Incident structs have defaulted equality covering culprits, victims,
  // and evidence.
  EXPECT_EQ(a.attribution.incidents, b.attribution.incidents);
  EXPECT_EQ(a.attribution.telemetry.alerts_explained,
            b.attribution.telemetry.alerts_explained);
  EXPECT_EQ(a.attribution.telemetry.alerts_orphaned,
            b.attribution.telemetry.alerts_orphaned);
  expect_telemetry_equal(a.telemetry, b.telemetry);
}

/// One string holding the report JSON plus all three job-facing exports,
/// for byte-for-byte comparison (everything a consumer can observe).
std::string render_all(const PrismReport& report, TimeWindow span) {
  std::ostringstream os;
  write_report_json(os, report);
  PerfettoExporter perfetto;
  JobSeriesCollector series;
  IncidentJournal journal;
  const WindowExportView view{span, &report, {}};
  perfetto.add_window(view);
  series.add_window(view);
  journal.add_window(view);
  journal.finish();
  perfetto.write(os);
  series.write_openmetrics(os);
  series.write_jsonl(os);
  journal.write_jsonl(os);
  return os.str();
}

class ColumnarEquivalenceTest
    : public ::testing::TestWithParam<std::size_t> {};

// The core differential: mapped LFT view path vs. the owning-columns
// baseline, at 1/2/4/8 threads, with the zero-copy fast path asserted via
// the sort counter.
TEST_P(ColumnarEquivalenceTest, MappedViewMatchesFlowTracePath) {
  const Fixture& f = fixture();
  PrismConfig cfg;
  cfg.num_threads = GetParam();
  const Prism prism(f.sim.topology, cfg);

  const MappedFlowTrace mapped(f.lft_path);
  const FlowView view = mapped.view();
  ASSERT_TRUE(view.sorted) << "sorted LFT must load born-sorted";
  ASSERT_EQ(view.size(), f.sim.trace.size());

  const std::uint64_t sorts_before =
      obs::default_registry().counter("llmprism_flowtrace_sorts_total").value();
  const PrismReport report = prism.analyze(view);
  EXPECT_EQ(obs::default_registry()
                .counter("llmprism_flowtrace_sorts_total")
                .value(),
            sorts_before)
      << "sorted-LFT fast path must not physically sort flow data";

  expect_reports_equal(f.baseline, report);
  const TimeWindow span = f.sim.trace.view().time_span();
  EXPECT_EQ(render_all(report, span), render_all(f.baseline, span));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ColumnarEquivalenceTest,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& param_info) {
                           return "Threads" + std::to_string(param_info.param);
                         });

// An unsorted view must still produce the identical report (through the
// argsort-gather path) — only the zero-sort guarantee is specific to
// sorted input.
TEST(ColumnarEquivalenceTest, UnsortedViewStillMatches) {
  const Fixture& f = fixture();
  // Reverse the sorted trace: maximally unsorted input, same flow set.
  FlowColumns reversed;
  reversed.reserve(f.sim.trace.size());
  for (std::size_t i = f.sim.trace.size(); i > 0; --i) {
    reversed.add(f.sim.trace[i - 1]);
  }
  ASSERT_FALSE(reversed.is_sorted());
  PrismConfig cfg;
  cfg.num_threads = 1;
  const Prism prism(f.sim.topology, cfg);
  expect_reports_equal(f.baseline, prism.analyze(reversed));
}

// Guard against the differential passing vacuously: the mix must actually
// produce the findings whose equality the comparisons pin down.
TEST(ColumnarEquivalenceCoverageTest, MixProducesFindings) {
  const Fixture& f = fixture();
  ASSERT_EQ(f.baseline.jobs.size(), 3u);
  std::size_t step_alerts = 0;
  for (const JobAnalysis& j : f.baseline.jobs) {
    step_alerts += j.step_alerts.size();
  }
  EXPECT_GT(step_alerts, 0u);
  EXPECT_FALSE(f.baseline.switch_bandwidth_gbps.empty());
  EXPECT_FALSE(f.baseline.switch_bandwidth_alerts.empty());
  EXPECT_FALSE(f.baseline.attribution.incidents.empty());
  EXPECT_GT(f.baseline.telemetry.bocd_observations, 0u);
  EXPECT_GT(f.baseline.telemetry.steps_reconstructed, 0u);
}

// --- producer golden bytes -------------------------------------------------
// Every producer's output pinned as the XXH64 of its LFT image: rows, row
// order, switch paths and the sorted flag. A change to how the simulator,
// the noise and fault passes, the collector or the CSV decoder build their
// traces must leave these digests alone.

template <typename Trace>
void expect_lft_golden(const Trace& trace, std::size_t size,
                       std::uint64_t digest, const char* name) {
  std::ostringstream os(std::ios::binary);
  write_lft(os, trace);
  const std::string bytes = std::move(os).str();
  const std::uint64_t got = xxhash64(bytes.data(), bytes.size());
  EXPECT_EQ(bytes.size(), size) << name;
  EXPECT_EQ(got, digest) << name << std::hex << ": actual xxh64 0x" << got;
}

// Drop, duplicate, size jitter, time jitter and a switch fault.
TEST(ProducerGoldenBytes, NoisyMixSimulation) {
  expect_lft_golden(run_cluster_sim(noisy_mix()).trace, 960'520,
                    0xbde12850d060ce4bULL, "noisy mix");
}

// Table I collection noise: correlated burst truncation on a fraction of
// the pairs, plus drops, duplicates and time jitter.
TEST(ProducerGoldenBytes, TableOneNoiseMix) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 8, .gpus_per_machine = 8,
                  .machines_per_leaf = 2, .num_spines = 2};
  JobSimConfig j0;
  j0.parallelism = {.tp = 8, .dp = 2, .pp = 2, .micro_batches = 4};
  j0.num_steps = 8;
  cfg.jobs.push_back({j0, {}});
  JobSimConfig j1;
  j1.parallelism = {.tp = 4, .dp = 4, .pp = 2, .micro_batches = 4};
  j1.num_steps = 8;
  cfg.jobs.push_back({j1, {}});
  cfg.noise.degraded_pair_fraction = 0.28;
  cfg.noise.truncation_prob_min = 0.25;
  cfg.noise.truncation_prob_max = 0.47;
  cfg.noise.drop_rate = 0.01;
  cfg.noise.duplicate_rate = 0.005;
  cfg.noise.time_jitter = 50 * kMicrosecond;
  cfg.seed = 5;
  expect_lft_golden(run_cluster_sim(cfg).trace, 451'048,
                    0x15415eb6295dd3a9ULL, "table I noise");
}

// Simulator flows cut into packets and re-assembled by the flow collector.
TEST(ProducerGoldenBytes, CollectorFlows) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 8, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 2, .pp = 2, .micro_batches = 4};
  job.num_steps = 4;
  cfg.jobs.push_back({job, {}});
  const auto sim = run_cluster_sim(cfg);
  Rng rng(99);
  const auto packets = packetize(sim.trace, {}, rng);
  expect_lft_golden(collect_flows(packets, sim.topology, {}, rng), 33'896,
                    0x2a082bc5ee5591f5ULL, "collector");
}

// The chunk-parallel CSV decoder on a file whose two halves are swapped:
// every chunk is a sorted run, but the stitched trace is not sorted.
TEST(ProducerGoldenBytes, ChunkedCsvDecode) {
  const auto sim = run_cluster_sim(noisy_mix());
  std::ostringstream csv;
  write_csv(csv, sim.trace);
  const std::string text = csv.str();
  const std::size_t header_end = text.find('\n') + 1;
  const std::size_t middle = text.find('\n', (header_end + text.size()) / 2) + 1;
  const std::string rotated = text.substr(0, header_end) +
                              text.substr(middle) +
                              text.substr(header_end, middle - header_end);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const ParseResult parsed = read_csv_checked(
        rotated, {.num_threads = threads, .min_chunk_bytes = 64 * 1024});
    ASSERT_TRUE(parsed.ok());
    expect_lft_golden(parsed.trace, 960'520, 0xb9ab40b0711cb003ULL, "csv");
  }
}

// --- one tie rule on every load path ---------------------------------------
// Rows equal on every FlowStartTimeLess key (start, src, dst, bytes) but
// not on duration or path leave each load path in one order: the stable
// sort keeps their input order, whether the CSV reader's caller sorts, the
// analysis boundary gathers an unsorted LFT mapping, or the monitor
// buffers a batch.

/// Durations of the rows that tie with `anchor` on every sort key, in row
/// order.
template <typename Rows>
void collect_ties(const Rows& rows, const FlowRecord& anchor,
                  std::vector<DurationNs>& out) {
  for (const FlowRecord& f : rows) {
    if (!FlowStartTimeLess{}(f, anchor) && !FlowStartTimeLess{}(anchor, f)) {
      out.push_back(f.duration);
    }
  }
}

std::vector<DurationNs> job_ties(const PrismReport& report,
                                 const FlowRecord& anchor) {
  std::vector<DurationNs> out;
  for (const JobAnalysis& job : report.jobs) {
    collect_ties(job.trace, anchor, out);
  }
  return out;
}

TEST(FlowOrderTest, TiedRowsKeepInputOrderOnEveryLoadPath) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 4, .gpus_per_machine = 8,
                  .machines_per_leaf = 2, .num_spines = 2};
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 2, .pp = 2, .micro_batches = 4};
  job.num_steps = 4;
  cfg.jobs.push_back({job, {}});
  const auto sim = run_cluster_sim(cfg);
  const FlowRecord anchor = sim.trace[sim.trace.size() / 2];
  ASSERT_EQ(anchor.switches.size(), 3u);  // leaf, spine, leaf

  // 48 ties, well past std::sort's 16-row insertion cutoff, told apart by
  // duration; every other one crosses the fabric the other way round.
  std::vector<FlowRecord> rows;
  for (std::size_t i = 1; i < sim.trace.size(); ++i) {
    rows.push_back(sim.trace[i]);
  }
  constexpr DurationNs kTies = 48;
  for (DurationNs k = 0; k < kTies; ++k) {
    FlowRecord tie = anchor;
    tie.duration = anchor.duration + 1 + k;
    if (k % 2 == 1) std::reverse(tie.switches.begin(), tie.switches.end());
    rows.push_back(tie);
  }
  // The earliest row first (the monitor opens its window there), the rest
  // reversed: the ties arrive last-added first, the anchor after them.
  decltype(sim.trace) input;
  input.add(sim.trace[0]);
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) input.add(*it);
  std::vector<DurationNs> expected;
  for (DurationNs k = kTies; k >= 0; --k) {
    expected.push_back(anchor.duration + k);
  }

  std::ostringstream csv;
  write_csv(csv, input);
  std::istringstream csv_in(csv.str());
  auto parsed = read_csv(csv_in);
  parsed.sort();
  std::vector<DurationNs> from_csv;
  collect_ties(parsed, anchor, from_csv);
  EXPECT_EQ(from_csv, expected) << "read_csv + sort";

  const std::string lft_path =
      (std::filesystem::temp_directory_path() /
       ("llmprism_tie_order_" + std::to_string(::getpid()) + ".lft"))
          .string();
  write_lft_file(lft_path, input);
  PrismConfig prism_cfg;
  prism_cfg.num_threads = 1;
  {
    const MappedFlowTrace mapped(lft_path);
    ASSERT_FALSE(mapped.sorted());
    const PrismReport report =
        Prism(sim.topology, prism_cfg).analyze(mapped.view());
    EXPECT_EQ(job_ties(report, anchor), expected) << "unsorted LFT mapping";
  }
  std::filesystem::remove(lft_path);

  MonitorConfig monitor_cfg;
  monitor_cfg.prism = prism_cfg;
  OnlineMonitor monitor(sim.topology, monitor_cfg);
  EXPECT_TRUE(monitor.ingest(input).empty());
  const std::optional<MonitorTick> tick = monitor.flush();
  ASSERT_TRUE(tick.has_value());
  EXPECT_EQ(job_ties(tick->report, anchor), expected) << "monitor ingest";
}

}  // namespace
}  // namespace llmprism
