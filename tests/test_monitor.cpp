// Tests for the online streaming monitor.
#include "llmprism/core/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "llmprism/common/rng.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

ClusterSimResult simulate(std::uint32_t steps = 20,
                          std::vector<StragglerSpec> stragglers = {}) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 8, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 2, .pp = 2, .micro_batches = 4};
  job.num_steps = steps;
  job.stragglers = std::move(stragglers);
  cfg.jobs.push_back({job, {}});
  return run_cluster_sim(cfg);
}

TEST(OnlineMonitorTest, RejectsBadConfig) {
  const auto sim = simulate(2);
  EXPECT_THROW(OnlineMonitor(sim.topology, {.window = 0}),
               std::invalid_argument);
  EXPECT_THROW(OnlineMonitor(sim.topology, {.reorder_slack = -1}),
               std::invalid_argument);
}

TEST(OnlineMonitorTest, WindowsCoverTheFeed) {
  const auto sim = simulate(20);
  MonitorConfig cfg;
  cfg.window = 2 * kSecond;
  OnlineMonitor monitor(sim.topology, cfg);
  auto ticks = monitor.ingest(sim.trace);
  const auto last = monitor.flush();
  ASSERT_TRUE(last.has_value());
  ticks.push_back(*last);

  // Windows tile the trace span contiguously.
  ASSERT_GE(ticks.size(), 3u);
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i].window.begin, ticks[i - 1].window.end);
  }
  EXPECT_EQ(monitor.stats().flows_ingested, sim.trace.size());
  EXPECT_EQ(monitor.stats().windows_completed, ticks.size());
}

TEST(OnlineMonitorTest, EveryWindowSeesTheJob) {
  const auto sim = simulate(20);
  MonitorConfig cfg;
  cfg.window = 3 * kSecond;
  cfg.prism.reconstruct_timelines = false;
  OnlineMonitor monitor(sim.topology, cfg);
  auto ticks = monitor.ingest(sim.trace);
  ASSERT_FALSE(ticks.empty());
  for (const MonitorTick& tick : ticks) {
    EXPECT_EQ(tick.report.jobs.size(), 1u) << "window at "
                                           << to_seconds(tick.window.begin);
  }
}

TEST(OnlineMonitorTest, JobIdentityIsStableAcrossWindows) {
  const auto sim = simulate(20);
  MonitorConfig cfg;
  cfg.window = 2 * kSecond;
  cfg.prism.reconstruct_timelines = false;
  OnlineMonitor monitor(sim.topology, cfg);
  auto ticks = monitor.ingest(sim.trace);
  const auto last = monitor.flush();
  if (last) ticks.push_back(*last);
  ASSERT_GE(ticks.size(), 2u);
  MonitorJobId first_id = ticks[0].job_ids.at(0);
  for (const MonitorTick& tick : ticks) {
    ASSERT_EQ(tick.job_ids.size(), 1u);
    EXPECT_EQ(tick.job_ids[0], first_id);
  }
  EXPECT_EQ(monitor.jobs_seen(), 1u);
  EXPECT_EQ(monitor.stats().job_windows.at(first_id), ticks.size());
}

TEST(OnlineMonitorTest, IncrementalBatchesMatchOneShot) {
  const auto sim = simulate(12);
  MonitorConfig cfg;
  cfg.window = 2 * kSecond;
  cfg.prism.reconstruct_timelines = false;

  OnlineMonitor one_shot(sim.topology, cfg);
  auto expected = one_shot.ingest(sim.trace);

  OnlineMonitor incremental(sim.topology, cfg);
  std::vector<MonitorTick> got;
  const std::size_t chunk = sim.trace.size() / 7 + 1;
  for (std::size_t at = 0; at < sim.trace.size(); at += chunk) {
    FlowColumns batch;
    for (std::size_t i = at; i < std::min(at + chunk, sim.trace.size());
         ++i) {
      batch.add(sim.trace[i]);
    }
    for (auto& t : incremental.ingest(batch)) got.push_back(std::move(t));
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].window.begin, expected[i].window.begin);
    EXPECT_EQ(got[i].report.jobs.size(), expected[i].report.jobs.size());
  }
}

// Deep tick comparison for the differential feeds below: the merge-based
// ingest path must produce byte-identical windows no matter how the flows
// were batched or reordered on the way in.
void expect_ticks_equal(const std::vector<MonitorTick>& got,
                        const std::vector<MonitorTick>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].window.begin, expected[i].window.begin);
    EXPECT_EQ(got[i].window.end, expected[i].window.end);
    EXPECT_EQ(got[i].job_ids, expected[i].job_ids);
    const PrismReport& a = got[i].report;
    const PrismReport& b = expected[i].report;
    EXPECT_EQ(a.telemetry.flows_total, b.telemetry.flows_total);
    EXPECT_EQ(a.telemetry.flows_routed, b.telemetry.flows_routed);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t j = 0; j < a.jobs.size(); ++j) {
      ASSERT_EQ(a.jobs[j].trace.size(), b.jobs[j].trace.size());
      for (std::size_t f = 0; f < a.jobs[j].trace.size(); ++f) {
        EXPECT_EQ(a.jobs[j].trace[f], b.jobs[j].trace[f])
            << "tick " << i << " job " << j << " flow " << f;
      }
    }
  }
}

TEST(OnlineMonitorTest, OutOfOrderBatchesWithLateDropsMatchOneShot) {
  const auto sim = simulate(12);
  MonitorConfig cfg;
  cfg.window = 2 * kSecond;
  cfg.reorder_slack = 100 * kMillisecond;
  cfg.prism.reconstruct_timelines = false;

  // Baseline: the whole (sorted) trace in one batch, then flush.
  OnlineMonitor one_shot(sim.topology, cfg);
  auto expected = one_shot.ingest(sim.trace);
  if (auto last = one_shot.flush()) expected.push_back(std::move(*last));

  // Same flows as many batches, each internally shuffled (out of order
  // within the batch), with a far-too-late flow replayed between batches —
  // those must be dropped without perturbing any window.
  Rng rng(777);
  OnlineMonitor incremental(sim.topology, cfg);
  std::vector<MonitorTick> got;
  const std::size_t chunk = sim.trace.size() / 9 + 1;
  std::size_t late_replays = 0;
  for (std::size_t at = 0; at < sim.trace.size(); at += chunk) {
    std::vector<FlowRecord> shuffled;
    for (std::size_t i = at; i < std::min(at + chunk, sim.trace.size());
         ++i) {
      shuffled.push_back(sim.trace[i]);
    }
    // The window origin is the first-ARRIVED flow's start time, so the
    // very first flow must stay first; everything after it is fair game.
    const std::size_t shuffle_from = at == 0 ? 1 : 0;
    for (std::size_t i = shuffled.size(); i > shuffle_from + 1; --i) {
      const auto j = shuffle_from + static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(i - shuffle_from) - 1));
      std::swap(shuffled[i - 1], shuffled[j]);
    }
    FlowColumns batch;
    for (FlowRecord& f : shuffled) batch.add(std::move(f));
    for (auto& t : incremental.ingest(batch)) got.push_back(std::move(t));

    // Once windows have closed, replay the very first flow: it starts
    // before the current window begin, so it must be dropped late.
    if (!got.empty()) {
      FlowColumns late;
      late.add(sim.trace[0]);
      const auto ticks = incremental.ingest(late);
      EXPECT_TRUE(ticks.empty());
      ++late_replays;
    }
  }
  if (auto last = incremental.flush()) got.push_back(std::move(*last));

  ASSERT_GT(late_replays, 0u);
  EXPECT_EQ(incremental.stats().flows_dropped_late, late_replays);
  EXPECT_EQ(incremental.stats().flows_ingested, sim.trace.size());
  expect_ticks_equal(got, expected);
}

TEST(OnlineMonitorTest, FlushOnEmptyIsNullopt) {
  const auto sim = simulate(2);
  OnlineMonitor monitor(sim.topology);
  EXPECT_FALSE(monitor.flush().has_value());
}

TEST(OnlineMonitorTest, AlertsAccumulateInStats) {
  // Straggler in the middle of the run; window sized to hold many steps so
  // the cross-step detector has a baseline.
  const auto sim = simulate(
      24, {{.rank = 3, .step_begin = 12, .step_end = 12, .slowdown = 2.5}});
  MonitorConfig cfg;
  cfg.window = 60 * kSecond;  // whole run in one window
  OnlineMonitor monitor(sim.topology, cfg);
  monitor.ingest(sim.trace);
  const auto tick = monitor.flush();
  ASSERT_TRUE(tick.has_value());
  EXPECT_GT(monitor.stats().step_alerts, 0u);
}

TEST(OnlineMonitorTest, LateFlowsBeyondSlackAreDropped) {
  const auto sim = simulate(8);
  MonitorConfig cfg;
  cfg.window = kSecond;
  cfg.reorder_slack = 100 * kMillisecond;
  OnlineMonitor monitor(sim.topology, cfg);
  monitor.ingest(sim.trace);
  // Replay the first flow far in the past: it must be silently dropped.
  FlowColumns late;
  late.add(sim.trace[0]);
  const auto before = monitor.stats().flows_ingested;
  monitor.ingest(late);
  EXPECT_EQ(monitor.stats().flows_ingested, before);
  EXPECT_EQ(monitor.stats().flows_dropped_late, 1u);
}

// ---------------------------------------------------------------------------
// Window-boundary and reorder-slack edge cases, exercised with hand-built
// flows so every timestamp is exact.

/// 4 machines x 2 GPUs: machine m hosts GPUs 2m and 2m+1.
ClusterTopology tiny_topology() {
  return ClusterTopology::build({.num_machines = 4, .gpus_per_machine = 2,
                                 .machines_per_leaf = 2, .num_spines = 1});
}

FlowRecord flow_at(TimeNs at, std::uint32_t src, std::uint32_t dst) {
  FlowRecord f;
  f.start_time = at;
  f.src = GpuId(src);
  f.dst = GpuId(dst);
  f.bytes = 1 << 20;
  f.duration = kMillisecond;
  return f;
}

MonitorConfig tiny_config(DurationNs window, DurationNs slack) {
  MonitorConfig cfg;
  cfg.window = window;
  cfg.reorder_slack = slack;
  cfg.prism.reconstruct_timelines = false;
  return cfg;
}

TEST(OnlineMonitorEdgeTest, FlowAtExactWindowEndBelongsToNextWindow) {
  const auto topology = tiny_topology();
  OnlineMonitor monitor(topology, tiny_config(kSecond, 0));
  FlowColumns batch;
  batch.add(flow_at(0, 0, 2));
  batch.add(flow_at(kSecond, 0, 2));      // exactly window_begin + window
  batch.add(flow_at(2 * kSecond, 0, 2));  // advances the watermark
  const auto ticks = monitor.ingest(batch);

  ASSERT_EQ(ticks.size(), 2u);
  EXPECT_EQ(ticks[0].window.begin, 0);
  EXPECT_EQ(ticks[0].window.end, kSecond);
  ASSERT_EQ(ticks[0].report.jobs.size(), 1u);
  // Windows are [begin, end): the boundary flow must land in the second.
  EXPECT_EQ(ticks[0].report.jobs[0].trace.size(), 1u);
  EXPECT_EQ(ticks[0].report.jobs[0].trace[0].start_time, 0);
  ASSERT_EQ(ticks[1].report.jobs.size(), 1u);
  EXPECT_EQ(ticks[1].report.jobs[0].trace.size(), 1u);
  EXPECT_EQ(ticks[1].report.jobs[0].trace[0].start_time, kSecond);
}

TEST(OnlineMonitorEdgeTest, FlowAtSlackLimitKeptOneTickPastDropped) {
  const auto topology = tiny_topology();
  const DurationNs slack = 100 * kMillisecond;
  OnlineMonitor monitor(topology, tiny_config(kSecond, slack));
  FlowColumns batch;
  batch.add(flow_at(0, 0, 2));
  // Watermark 1s + slack closes exactly [0, 1s); the oldest admissible
  // start time is then the new window begin, 1s.
  batch.add(flow_at(kSecond + slack, 0, 2));
  const auto ticks = monitor.ingest(batch);
  ASSERT_EQ(ticks.size(), 1u);
  EXPECT_EQ(monitor.stats().flows_dropped_late, 0u);

  FlowColumns at_limit;
  at_limit.add(flow_at(kSecond, 0, 2));  // exactly at the limit: kept
  monitor.ingest(at_limit);
  EXPECT_EQ(monitor.stats().flows_dropped_late, 0u);
  EXPECT_EQ(monitor.stats().flows_ingested, 3u);

  FlowColumns past_limit;
  past_limit.add(flow_at(kSecond - 1, 0, 2));  // one tick past: dropped
  monitor.ingest(past_limit);
  EXPECT_EQ(monitor.stats().flows_dropped_late, 1u);
  EXPECT_EQ(monitor.stats().flows_ingested, 3u);
}

TEST(OnlineMonitorEdgeTest, FlushAfterDrainingIsNullopt) {
  const auto topology = tiny_topology();
  OnlineMonitor monitor(topology, tiny_config(kSecond, 0));
  FlowColumns batch;
  batch.add(flow_at(0, 0, 2));
  batch.add(flow_at(10 * kMillisecond, 0, 2));
  monitor.ingest(batch);
  EXPECT_TRUE(monitor.flush().has_value());
  EXPECT_FALSE(monitor.flush().has_value());
}

TEST(OnlineMonitorEdgeTest, StableIdPersistsWhenJobSkipsAWindow) {
  const auto topology = tiny_topology();
  OnlineMonitor monitor(topology, tiny_config(kSecond, 0));
  FlowColumns batch;
  // Job A (machines 0-1) in windows 0 and 2; job B (machines 2-3) in all
  // three, which keeps the windows advancing while A is absent.
  batch.add(flow_at(0, 0, 2));                           // A, window 0
  batch.add(flow_at(10 * kMillisecond, 4, 6));           // B, window 0
  batch.add(flow_at(kSecond + 200 * kMillisecond, 4, 6));       // B only
  batch.add(flow_at(2 * kSecond + 100 * kMillisecond, 0, 2));   // A returns
  batch.add(flow_at(2 * kSecond + 200 * kMillisecond, 4, 6));   // B
  batch.add(flow_at(3 * kSecond + 500 * kMillisecond, 4, 6));   // watermark
  const auto ticks = monitor.ingest(batch);

  ASSERT_EQ(ticks.size(), 3u);
  ASSERT_EQ(ticks[0].job_ids.size(), 2u);  // A first (smallest GPU id)
  ASSERT_EQ(ticks[1].job_ids.size(), 1u);
  ASSERT_EQ(ticks[2].job_ids.size(), 2u);
  const MonitorJobId id_a = ticks[0].job_ids[0];
  const MonitorJobId id_b = ticks[0].job_ids[1];
  EXPECT_NE(id_a, id_b);
  EXPECT_EQ(ticks[1].job_ids[0], id_b);
  EXPECT_EQ(ticks[2].job_ids[0], id_a);  // same id despite the gap
  EXPECT_EQ(ticks[2].job_ids[1], id_b);
  EXPECT_EQ(monitor.jobs_seen(), 2u);
  EXPECT_EQ(monitor.stats().job_windows.at(id_a), 2u);
  EXPECT_EQ(monitor.stats().job_windows.at(id_b), 3u);
}

TEST(OnlineMonitorEdgeTest, StableIdRecycledWhenMachineSetShrinksAndReturns) {
  const auto topology = tiny_topology();
  OnlineMonitor monitor(topology, tiny_config(kSecond, 0));
  FlowColumns batch;
  // Window 0: machines {0,1,2}. Window 1: the job shrinks to {0,1} — a
  // different identity. Window 2: the full set returns and must get its
  // original id back, not a third one.
  batch.add(flow_at(0, 0, 2));
  batch.add(flow_at(10 * kMillisecond, 2, 4));
  batch.add(flow_at(kSecond + 100 * kMillisecond, 0, 2));
  batch.add(flow_at(2 * kSecond + 100 * kMillisecond, 0, 2));
  batch.add(flow_at(2 * kSecond + 200 * kMillisecond, 2, 4));
  batch.add(flow_at(3 * kSecond + 500 * kMillisecond, 0, 2));  // watermark
  const auto ticks = monitor.ingest(batch);

  ASSERT_EQ(ticks.size(), 3u);
  ASSERT_EQ(ticks[0].job_ids.size(), 1u);
  ASSERT_EQ(ticks[1].job_ids.size(), 1u);
  ASSERT_EQ(ticks[2].job_ids.size(), 1u);
  const MonitorJobId full = ticks[0].job_ids[0];
  const MonitorJobId shrunk = ticks[1].job_ids[0];
  EXPECT_NE(full, shrunk);
  EXPECT_EQ(ticks[2].job_ids[0], full);
  EXPECT_EQ(monitor.stats().stable_ids_created, 2u);
  EXPECT_EQ(monitor.stats().job_windows.at(full), 2u);
  EXPECT_EQ(monitor.stats().job_windows.at(shrunk), 1u);
}

TEST(OnlineMonitorEdgeTest, SteadyTrafficMintsOneStableIdWithCarry) {
  const auto topology = tiny_topology();
  MonitorConfig cfg = tiny_config(kSecond, 0);
  ASSERT_TRUE(cfg.carry_state) << "the session engine is the default";
  OnlineMonitor monitor(topology, cfg);
  FlowColumns batch;
  for (TimeNs t = 0; t < 4 * kSecond + kSecond / 2; t += 100 * kMillisecond) {
    batch.add(flow_at(t, 0, 2));
  }
  const auto ticks = monitor.ingest(batch);

  ASSERT_EQ(ticks.size(), 4u);
  EXPECT_EQ(monitor.stats().stable_ids_created, 1u);
  const PrismSession* session = monitor.session();
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->counters().jobs_created, 1u);
  EXPECT_EQ(session->counters().jobs_reused, 3u);
  EXPECT_EQ(session->counters().windows, 4u);
}

}  // namespace
}  // namespace llmprism
