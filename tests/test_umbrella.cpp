// The umbrella header contract: `#include "llmprism/llmprism.hpp"` — and
// nothing else from the library — must be enough to drive the whole
// public API: simulate, analyze one-shot, render, and run the online
// monitor with the session engine. This is a compile-time guarantee as
// much as a runtime one; keep this file's include list to the single
// umbrella header.
#include "llmprism/llmprism.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace llmprism {
namespace {

ClusterSimResult small_cluster() {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 4, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 2, .pp = 2, .micro_batches = 4};
  job.num_steps = 6;
  cfg.jobs.push_back({job, {}});
  cfg.seed = 7;
  return run_cluster_sim(cfg);
}

TEST(UmbrellaHeaderTest, QuickstartLoopCompilesAndRuns) {
  const ClusterSimResult sim = small_cluster();
  ASSERT_FALSE(sim.trace.empty());

  // One-shot analysis + both renderers.
  PrismConfig config;
  ASSERT_TRUE(config.validate().empty());
  const Prism prism(sim.topology, config);
  const PrismReport report = prism.analyze(sim.trace.view());
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_FALSE(render_report_summary(report).empty());
  std::stringstream json;
  write_report_json(json, report);
  EXPECT_NE(json.str().find("\"schema_version\""), std::string::npos);

  // CSV round trip through the io layer.
  std::stringstream csv;
  write_csv(csv, sim.trace);
  const ParseResult parsed = read_csv_checked(csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.trace.size(), sim.trace.size());

  // The streaming monitor with the session engine on.
  MonitorConfig monitor_config;
  monitor_config.window = kSecond;
  ASSERT_TRUE(monitor_config.validate().empty());
  OnlineMonitor monitor(sim.topology, monitor_config);
  auto ticks = monitor.ingest(sim.trace);
  if (auto last = monitor.flush()) ticks.push_back(std::move(*last));
  EXPECT_FALSE(ticks.empty());
  ASSERT_NE(monitor.session(), nullptr);
  EXPECT_GT(monitor.session()->counters().windows, 0u);
}

}  // namespace
}  // namespace llmprism
