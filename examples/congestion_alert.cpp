// Fail-slow incident walkthrough: three faults are injected into a running
// cluster — a straggling GPU, a congested DP ring, and a degraded switch —
// and LLMPrism's three diagnosis dimensions (cross-step, cross-group,
// switch-level) localize each one from flow data alone.
//
// Run:  ./examples/congestion_alert
#include <iostream>
#include <set>

#include "llmprism/llmprism.hpp"

using namespace llmprism;

int main() {
  ClusterSimConfig sim_config;
  sim_config.topology = {.num_machines = 32,
                         .gpus_per_machine = 8,
                         .machines_per_leaf = 4,
                         .num_spines = 4};
  sim_config.seed = 11;

  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 8, .pp = 2, .micro_batches = 4};
  job.num_steps = 24;
  // Fault 1: GPU rank 17 thermal-throttles for steps 10-11.
  job.stragglers.push_back(
      {.rank = 17, .step_begin = 10, .step_end = 11, .slowdown = 2.5});
  // Fault 2: DP group (tp=3, pp=1) hits ring congestion for steps 16-18.
  job.slow_dp_groups.push_back(
      {.tp_idx = 3, .pp_idx = 1, .step_begin = 16, .step_end = 18,
       .slowdown = 3.0});
  sim_config.jobs.push_back({job, {}});

  // Fault 3: leaf switch 2 loses 70% of its bandwidth mid-run.
  sim_config.switch_faults.push_back(
      {SwitchId(2), TimeWindow{0, 10 * kMinute}, 0.3});

  std::cout << "simulating a 128-GPU job with 3 injected faults...\n";
  const ClusterSimResult sim = run_cluster_sim(sim_config);

  const Prism prism(sim.topology);
  const PrismReport report = prism.analyze(sim.trace);
  const JobAnalysis& analysis = report.jobs.front();

  std::cout << "\n--- cross-step diagnosis (straggler) ---\n";
  if (analysis.step_alerts.empty()) {
    std::cout << "no alerts\n";
  }
  // Alerts repeat per rank (synchronous training stalls everyone); print
  // the distinct flagged steps.
  std::set<std::size_t> flagged_steps;
  for (const StepAlert& a : analysis.step_alerts) {
    if (flagged_steps.insert(a.step_index).second) {
      std::printf(
          "  step %zu ran %.2f s against a %.2f s baseline (threshold %.2f s)\n",
          a.step_index, a.duration_s, a.mean_s, a.threshold_s);
    }
  }

  std::cout << "\n--- cross-group diagnosis (congested DP ring) ---\n";
  if (analysis.group_alerts.empty()) {
    std::cout << "no alerts\n";
  }
  for (const GroupAlert& a : analysis.group_alerts) {
    std::printf(
        "  DP group %zu in step %zu synced in %.3f s vs %.3f s across "
        "groups\n",
        a.group_index, a.step_index, a.duration_s, a.mean_s);
  }

  std::cout << "\n--- switch-level diagnosis (degraded leaf) ---\n";
  std::cout << "  per-switch average DP bandwidth (Gb/s):";
  for (const auto& [sw, bw] : report.switch_bandwidth_gbps) {
    std::printf(" sw%u=%.0f", sw.value(), bw);
  }
  std::cout << '\n';
  if (report.switch_bandwidth_alerts.empty()) {
    std::cout << "  no alerts\n";
  }
  for (const SwitchBandwidthAlert& a : report.switch_bandwidth_alerts) {
    std::printf(
        "  ALERT switch %u: %.0f Gb/s, %.0fx below the cluster norm of %.0f "
        "Gb/s\n",
        a.switch_id.value(), a.bandwidth_gbps,
        a.mean_gbps / a.bandwidth_gbps, a.mean_gbps);
  }

  std::cout << "\ninjected ground truth for comparison:\n";
  for (const InjectedAnomaly& a : sim.anomalies) {
    switch (a.kind) {
      case AnomalyKind::kStraggler:
        std::printf("  straggler rank %u, steps %u-%u, %.1fx\n",
                    a.rank.value(), a.step_begin, a.step_end, a.severity);
        break;
      case AnomalyKind::kSlowDpGroup:
        std::printf("  slow DP group %u, steps %u-%u, %.1fx\n",
                    a.dp_group_index, a.step_begin, a.step_end, a.severity);
        break;
      case AnomalyKind::kDegradedSwitch:
        std::printf("  degraded switch %u, %.1fx slower\n",
                    a.switch_id.value(), a.severity);
        break;
    }
  }
  return 0;
}
