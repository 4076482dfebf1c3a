// Unit tests for the dense GPU->job flow routing table, including the
// dst-fallback path that the end-to-end pipeline cannot reach (the
// internal recognizer attributes every flow endpoint, so these tests
// hand-build half-recognized jobs).
#include "llmprism/core/flow_router.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "llmprism/common/rng.hpp"
#include "llmprism/common/thread_pool.hpp"
#include "llmprism/core/comm_type.hpp"
#include "llmprism/core/diagnosis.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

FlowRecord flow_at(TimeNs at, std::uint32_t src, std::uint32_t dst) {
  FlowRecord f;
  f.start_time = at;
  f.src = GpuId(src);
  f.dst = GpuId(dst);
  f.bytes = 1 << 20;
  f.duration = 100;
  return f;
}

RecognizedJob job_with_gpus(std::vector<std::uint32_t> gpus) {
  RecognizedJob job;
  for (const std::uint32_t g : gpus) job.gpus.push_back(GpuId(g));
  return job;
}

TEST(FlowRouterTest, RoutesBySrcToTheOwningJob) {
  const std::vector<RecognizedJob> jobs{job_with_gpus({0, 1}),
                                        job_with_gpus({4, 5})};
  const FlowRouter router(jobs);
  EXPECT_EQ(router.num_jobs(), 2u);
  EXPECT_EQ(router.job_of(GpuId(0)), 0u);
  EXPECT_EQ(router.job_of(GpuId(5)), 1u);
  EXPECT_EQ(router.job_of(GpuId(3)), FlowRouter::kUnattributed);
  EXPECT_EQ(router.job_of(GpuId(99)), FlowRouter::kUnattributed);

  FlowTrace trace;
  trace.add(flow_at(10, 0, 1));
  trace.add(flow_at(20, 5, 4));
  trace.add(flow_at(30, 1, 0));
  const auto result = router.route(FlowColumns(trace).view());
  EXPECT_EQ(result.flows_routed, 3u);
  EXPECT_EQ(result.flows_routed_via_dst, 0u);
  EXPECT_EQ(result.flows_unattributed, 0u);
  ASSERT_EQ(result.job_columns.size(), 2u);
  EXPECT_EQ(result.job_columns[0].size(), 2u);
  EXPECT_EQ(result.job_columns[1].size(), 1u);
}

TEST(FlowRouterTest, FallsBackToDstWhenSrcIsUnattributed) {
  // Half-recognized job: GPU 7 talks to the job but no job owns it. A
  // src-only lookup would silently drop the 7->1 flow even though the
  // job owns its dst.
  const std::vector<RecognizedJob> jobs{job_with_gpus({0, 1})};
  const FlowRouter router(jobs);

  FlowTrace trace;
  trace.add(flow_at(10, 7, 1));   // src unattributed, dst owned: recovered
  trace.add(flow_at(20, 0, 7));   // src owned: normal routing
  trace.add(flow_at(30, 8, 9));   // neither endpoint owned: unattributed
  const auto result = router.route(FlowColumns(trace).view());
  EXPECT_EQ(result.flows_routed, 2u);
  EXPECT_EQ(result.flows_routed_via_dst, 1u);
  EXPECT_EQ(result.flows_unattributed, 1u);
  ASSERT_EQ(result.job_columns.size(), 1u);
  ASSERT_EQ(result.job_columns[0].size(), 2u);
  EXPECT_EQ(result.job_columns[0][0].src, GpuId(7));
  EXPECT_EQ(result.job_columns[0][1].src, GpuId(0));
}

TEST(FlowRouterTest, PreservesOrderSoSortedInputYieldsSortedJobTraces) {
  const std::vector<RecognizedJob> jobs{job_with_gpus({0, 1}),
                                        job_with_gpus({2, 3})};
  const FlowRouter router(jobs);
  FlowTrace trace;
  trace.add(flow_at(10, 0, 1));
  trace.add(flow_at(20, 2, 3));
  trace.add(flow_at(30, 1, 0));
  trace.add(flow_at(40, 3, 2));
  ASSERT_TRUE(trace.is_sorted());
  const auto result = router.route(FlowColumns(trace).view());
  for (const FlowColumns& jt : result.job_columns) {
    // Born sorted: the cached flag must already know, no O(N) verify is
    // involved in the assertion path.
    EXPECT_TRUE(jt.is_sorted());
  }
  EXPECT_EQ(result.job_columns[0][0].start_time, 10);
  EXPECT_EQ(result.job_columns[0][1].start_time, 30);
}

TEST(FlowRouterTest, LowerJobWinsContestedGpus) {
  // The recognizer never produces overlapping jobs; the table still has a
  // deterministic rule if it happens.
  const std::vector<RecognizedJob> jobs{job_with_gpus({0, 1}),
                                        job_with_gpus({1, 2})};
  const FlowRouter router(jobs);
  EXPECT_EQ(router.job_of(GpuId(1)), 0u);
}

TEST(FlowRouterTest, EmptyJobsRouteNothing) {
  const FlowRouter router(std::vector<RecognizedJob>{});
  FlowTrace trace;
  trace.add(flow_at(10, 0, 1));
  const auto result = router.route(FlowColumns(trace).view());
  EXPECT_TRUE(result.job_columns.empty());
  EXPECT_EQ(result.flows_routed, 0u);
  EXPECT_EQ(result.flows_unattributed, 1u);
}

/// Field-for-field equality of two routes of one view.
void expect_same_route(const FlowRouter::ColumnarResult& a,
                       const FlowRouter::ColumnarResult& b) {
  EXPECT_EQ(a.job_of_flow, b.job_of_flow);
  EXPECT_EQ(a.flows_routed, b.flows_routed);
  EXPECT_EQ(a.flows_routed_via_dst, b.flows_routed_via_dst);
  EXPECT_EQ(a.flows_unattributed, b.flows_unattributed);
  ASSERT_EQ(a.job_columns.size(), b.job_columns.size());
  for (std::size_t j = 0; j < a.job_columns.size(); ++j) {
    SCOPED_TRACE(j);
    const FlowColumns& x = a.job_columns[j];
    const FlowColumns& y = b.job_columns[j];
    EXPECT_EQ(x.start_ns, y.start_ns);
    EXPECT_EQ(x.src, y.src);
    EXPECT_EQ(x.dst, y.dst);
    EXPECT_EQ(x.bytes, y.bytes);
    EXPECT_EQ(x.duration_ns, y.duration_ns);
    EXPECT_EQ(x.switch_offsets, y.switch_offsets);
    EXPECT_EQ(x.switch_ids, y.switch_ids);
    EXPECT_EQ(x.sorted, y.sorted);
  }
}

/// Three jobs, the third of which no flow touches, and 2,000 flows with
/// src-routed, dst-fallback and unattributed rows and 0-3 hops each.
FlowTrace mixed_route_fixture() {
  Rng rng(17);
  FlowTrace trace;
  for (int i = 0; i < 2000; ++i) {
    FlowRecord f = flow_at(rng.uniform_int(0, 1'000'000),
                           static_cast<std::uint32_t>(rng.uniform_int(0, 13)),
                           static_cast<std::uint32_t>(rng.uniform_int(0, 13)));
    f.bytes = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
    f.duration = rng.uniform_int(0, 5000);
    const auto hops = rng.uniform_int(0, 3);
    for (std::int64_t h = 0; h < hops; ++h) {
      f.switches.push_back(
          SwitchId(static_cast<std::uint32_t>(rng.uniform_int(0, 20))));
    }
    trace.add(f);
  }
  trace.sort();
  return trace;
}

TEST(FlowRouterTest, ParallelRouteEqualsSerialRoute) {
  // GPUs 0-3 and 6-9 are owned; 4, 5 and 10-13 are not, so rows route by
  // src, by dst fallback, or not at all. Job 2 owns GPUs no flow uses.
  const std::vector<RecognizedJob> jobs{job_with_gpus({0, 1, 2, 3}),
                                        job_with_gpus({6, 7, 8, 9}),
                                        job_with_gpus({40, 41})};
  const FlowRouter router(jobs);
  const FlowColumns columns(mixed_route_fixture());
  FlowColumns no_hops = columns;
  no_hops.switch_offsets.clear();
  no_hops.switch_ids.clear();
  const FlowView full = columns.view();
  // A slice keeps absolute CSR offsets into the parent's hop storage.
  const FlowView sliced = full.slice(137, 1501);
  ASSERT_NE(sliced.switch_offsets[0], 0u);
  // Fewer rows than chunks: 3 rows over 4 * lanes chunks.
  const FlowView tiny = full.slice(0, 3);

  const FlowRouter::ColumnarResult serial = router.route(full);
  EXPECT_GT(serial.flows_routed_via_dst, 0u);
  EXPECT_GT(serial.flows_unattributed, 0u);
  EXPECT_TRUE(serial.job_columns[2].empty());
  EXPECT_EQ(serial.job_columns[2].switch_offsets,
            std::vector<std::uint64_t>{0});

  for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(lanes);
    ThreadPool pool(lanes - 1);
    for (const FlowView& view : {full, no_hops.view(), sliced, tiny}) {
      const FlowRouter::ColumnarResult want = router.route(view);
      const FlowRouter::ColumnarResult got = router.route(view, &pool);
      expect_same_route(got, want);

      // The DP selection over the parallel chunk plan marks the rows the
      // serial one does.
      std::vector<std::vector<CommType>> types(jobs.size());
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        for (std::size_t k = 0; k < want.job_columns[j].size(); ++k) {
          types[j].push_back(k % 3 == j % 3 ? CommType::kDP : CommType::kPP);
        }
      }
      EXPECT_EQ(got.type_mask(types, CommType::kDP, &pool),
                want.type_mask(types, CommType::kDP));
    }
  }
}

TEST(FlowRouterTest, DpRowGatherEqualsJobOrderMergeOfDpRuns) {
  // Two jobs on interleaved machines (job 0 on even, job 1 on odd ones)
  // and start times rounded to 10 ms: many flows of different jobs share a
  // start instant, and at such ties the input's (src, dst) order often
  // puts job 1's flow first.
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 10, .gpus_per_machine = 8,
                  .machines_per_leaf = 2, .num_spines = 2};
  JobSimConfig a;
  a.parallelism = {.tp = 8, .dp = 2, .pp = 2, .micro_batches = 4};
  a.num_steps = 8;
  JobSimConfig b;
  b.parallelism = {.tp = 8, .dp = 4, .pp = 1, .micro_batches = 4};
  b.num_steps = 8;
  JobSimConfig c;
  c.parallelism = {.tp = 4, .dp = 2, .pp = 2, .micro_batches = 4};
  c.num_steps = 8;
  cfg.jobs.push_back({a, {MachineId(0), MachineId(2), MachineId(4),
                          MachineId(6)}});
  cfg.jobs.push_back({b, {MachineId(1), MachineId(3), MachineId(5),
                          MachineId(7)}});
  cfg.jobs.push_back({c, {MachineId(8), MachineId(9)}});
  cfg.seed = 5;
  const ClusterSimResult sim = run_cluster_sim(cfg);
  FlowColumns columns(sim.trace);
  for (TimeNs& t : columns.start_ns) t -= t % (10 * kMillisecond);
  columns.sorted = false;
  columns.sort();
  const FlowView view = columns.view();

  const auto recognition = JobRecognizer(sim.topology).recognize(view);
  ASSERT_EQ(recognition.jobs.size(), 3u);
  const FlowRouter router(recognition.jobs);
  auto routed = router.route(view);
  std::vector<std::vector<CommType>> types(recognition.jobs.size());
  std::vector<FlowColumns> dp_runs(recognition.jobs.size());
  for (std::size_t j = 0; j < types.size(); ++j) {
    const FlowView job_view = routed.job_columns[j].view();
    (void)CommTypeIdentifier{}.identify(job_view, PairIndex(job_view),
                                        &types[j]);
    for (std::size_t k = 0; k < job_view.size(); ++k) {
      if (types[j][k] == CommType::kDP) dp_runs[j].append_row(job_view, k);
    }
  }

  const std::vector<std::uint8_t> dp_mask =
      routed.type_mask(types, CommType::kDP);
  std::vector<std::uint32_t> rows;
  for (std::size_t i = 0; i < dp_mask.size(); ++i) {
    if (dp_mask[i] != 0) rows.push_back(static_cast<std::uint32_t>(i));
  }
  std::size_t inverted_ties = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (view.start_ns[rows[i - 1]] == view.start_ns[rows[i]] &&
        routed.job_of_flow[rows[i - 1]] > routed.job_of_flow[rows[i]]) {
      ++inverted_ties;
    }
  }
  EXPECT_GT(inverted_ties, 0u) << "fixture never exercises the tie rule";

  const FlowColumns gathered =
      FlowColumns::gather(view, rows, /*rows_sorted_subset=*/true);
  const FlowColumns merged = FlowColumns::merge_sorted_runs(std::move(dp_runs));
  ASSERT_GT(merged.size(), 0u);
  EXPECT_TRUE(gathered.is_sorted());
  EXPECT_EQ(gathered.start_ns, merged.start_ns);
  EXPECT_EQ(gathered.src, merged.src);
  EXPECT_EQ(gathered.dst, merged.dst);
  EXPECT_EQ(gathered.bytes, merged.bytes);
  EXPECT_EQ(gathered.duration_ns, merged.duration_ns);
  EXPECT_EQ(gathered.switch_offsets, merged.switch_offsets);
  EXPECT_EQ(gathered.switch_ids, merged.switch_ids);

  // The switch sample table built straight from the view's DP rows, over
  // the routing chunks, equals the one built from the merged DP runs.
  const SwitchSamples direct(view, routed.chunk_rows, dp_mask);
  const SwitchSamples from_merge(merged.view(),
                                 row_chunks(merged.size(), nullptr));
  ASSERT_GT(direct.num_switches(), 0u);
  EXPECT_EQ(direct.offsets, from_merge.offsets);
  EXPECT_EQ(direct.start_ns, from_merge.start_ns);
  EXPECT_EQ(direct.end_ns, from_merge.end_ns);
  EXPECT_EQ(direct.bandwidth_gbps, from_merge.bandwidth_gbps);
}

}  // namespace
}  // namespace llmprism
