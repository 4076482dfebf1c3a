// Continuous monitoring walkthrough: stream a live flow feed into
// OnlineMonitor in collector-sized batches and watch windows close, jobs
// keep stable identities, and a mid-run fault raise alerts — the paper's
// production deployment mode.
//
// Run:  ./examples/online_monitor
#include <iostream>

#include "llmprism/llmprism.hpp"

using namespace llmprism;

int main() {
  // A cluster with two jobs; one develops a straggler mid-run.
  ClusterSimConfig sim_config;
  sim_config.topology = {.num_machines = 16,
                         .gpus_per_machine = 8,
                         .machines_per_leaf = 4,
                         .num_spines = 2};
  sim_config.seed = 31;

  JobSimConfig healthy;
  healthy.parallelism = {.tp = 8, .dp = 4, .pp = 1, .micro_batches = 4};
  healthy.num_steps = 40;

  JobSimConfig degraded;
  degraded.parallelism = {.tp = 8, .dp = 4, .pp = 2, .micro_batches = 4};
  degraded.num_steps = 40;
  degraded.stragglers.push_back(
      {.rank = 11, .step_begin = 25, .step_end = 27, .slowdown = 2.5});

  sim_config.jobs.push_back({healthy, {}});
  sim_config.jobs.push_back({degraded, {}});
  const ClusterSimResult sim = run_cluster_sim(sim_config);
  std::cout << "feed: " << sim.trace.size() << " flows over "
            << to_seconds(sim.trace.view().time_span().length()) << " s\n\n";

  MonitorConfig config;
  config.window = 5 * kSecond;
  OnlineMonitor monitor(sim.topology, config);

  // Stream the feed in 1-second collector batches, as a live deployment
  // would receive it.
  std::vector<MonitorTick> ticks;
  const FlowView flows = sim.trace.view();
  const TimeWindow span = flows.time_span();
  for (TimeNs at = span.begin; at < span.end; at += kSecond) {
    const FlowView batch = flows.window({at, at + kSecond});
    for (auto& tick : monitor.ingest(batch)) ticks.push_back(std::move(tick));
  }
  if (auto last = monitor.flush()) ticks.push_back(std::move(*last));

  std::cout << "window | jobs | steps seen | alerts\n";
  std::cout << "-------+------+------------+-------\n";
  for (const MonitorTick& tick : ticks) {
    std::size_t steps = 0;
    std::size_t alerts = 0;
    std::string alert_detail;
    for (const JobAnalysis& job : tick.report.jobs) {
      if (!job.timelines.empty()) steps += job.timelines.front().steps.size();
      alerts += job.step_alerts.size() + job.group_alerts.size();
      for (const StepAlert& a : job.step_alerts) {
        alert_detail = "  <- step " + std::to_string(a.step_index) +
                       " slow in window-local numbering";
        break;
      }
    }
    std::printf("%4.0f s | %4zu | %10zu | %5zu%s\n",
                to_seconds(tick.window.begin), tick.report.jobs.size(), steps,
                alerts, alert_detail.c_str());
  }

  const MonitorStats& stats = monitor.stats();
  std::cout << "\ncumulative: " << stats.windows_completed << " windows, "
            << stats.flows_ingested << " flows, " << stats.step_alerts
            << " step alerts, " << stats.group_alerts << " group alerts\n";
  std::cout << "stable jobs observed: " << monitor.jobs_seen() << '\n';
  for (const auto& [id, windows] : stats.job_windows) {
    std::cout << "  job#" << id << " seen in " << windows << " windows\n";
  }
  return 0;
}
