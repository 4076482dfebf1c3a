// Unit tests for the dense GPU->job flow routing table, including the
// dst-fallback path that the end-to-end pipeline cannot reach (the
// internal recognizer attributes every flow endpoint, so these tests
// hand-build half-recognized jobs).
#include "llmprism/core/flow_router.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "llmprism/core/comm_type.hpp"
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

  const std::vector<std::uint32_t> rows = FlowRouter::rows_of_type(
      routed.job_of_flow, types, CommType::kDP);
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
}

}  // namespace
}  // namespace llmprism
