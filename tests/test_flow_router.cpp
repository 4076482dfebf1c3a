// Unit tests for the dense GPU->job flow routing table, including the
// dst-fallback path that the end-to-end pipeline cannot reach (the
// internal recognizer attributes every flow endpoint, so these tests
// hand-build half-recognized jobs).
#include "llmprism/core/flow_router.hpp"

#include <gtest/gtest.h>

#include <vector>

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

}  // namespace
}  // namespace llmprism
