// Reproduces Fig. 5 (§V-D): switch-level diagnosis over a one-hour window.
//
// Paper result: typical per-switch average DP bandwidth sits between 100
// and 180 Gb/s; during the incident a subset of switches degrades to
// 30-60 Gb/s and LLMPrism alerts on exactly those switches.
#include <cstdio>
#include <set>

#include "bench_util.hpp"
#include "llmprism/core/prism.hpp"

using namespace llmprism;
using namespace llmprism::bench;

namespace {

/// A job with ~12 s steps so that 300 steps span a full hour.
JobSimConfig hour_scale_job(std::uint32_t tp, std::uint32_t dp,
                            std::uint32_t pp) {
  JobSimConfig job;
  job.parallelism = {.tp = tp, .dp = dp, .pp = pp, .micro_batches = 9};
  job.fwd_micro_batch = 400 * kMillisecond;
  job.bwd_micro_batch = 800 * kMillisecond;
  job.optimizer_time = 60 * kMillisecond;
  job.dp_total_bytes = 4ull << 30;
  job.num_steps = 300;
  return job;
}

}  // namespace

int main() {
  std::printf("=== Fig. 5: switch-level diagnosis over a 1-hour window ===\n\n");

  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 48,
                  .gpus_per_machine = 8,
                  .machines_per_leaf = 4,
                  .num_spines = 4};  // 12 leaves + 4 spines
  cfg.seed = 3600;
  cfg.jobs.push_back({hour_scale_job(8, 8, 2), {}});   // 128 GPUs
  cfg.jobs.push_back({hour_scale_job(8, 8, 1), {}});   // 64 GPUs
  cfg.jobs.push_back({hour_scale_job(8, 4, 2), {}});   // 64 GPUs
  cfg.jobs.push_back({hour_scale_job(8, 4, 1), {}});   // 32 GPUs

  // The incident: three switches degrade for the whole window.
  const std::set<std::uint32_t> degraded{1, 5, 13};
  for (const std::uint32_t sw : degraded) {
    cfg.switch_faults.push_back(
        {SwitchId(sw), TimeWindow{0, 2 * kHour}, 0.30});
  }

  Stopwatch sim_watch;
  const ClusterSimResult sim = run_cluster_sim(cfg);
  std::printf("simulated %zu flows over %.0f min (%.1f s)\n",
              sim.trace.size(), to_seconds(sim.trace.view().time_span().length()) / 60.0,
              sim_watch.seconds());

  PrismConfig prism_config;
  prism_config.reconstruct_timelines = false;  // switch-level only
  const Prism prism(sim.topology, prism_config);
  Stopwatch watch;
  const PrismReport report = prism.analyze(sim.trace.view());
  std::printf("analysis wall time: %.1f s\n\n", watch.seconds());

  std::printf("per-switch one-hour average DP bandwidth (the Fig. 5 series):\n");
  std::printf("  switch | type  | avg Gb/s | flagged\n");
  std::printf("  -------+-------+----------+--------\n");
  std::set<std::uint32_t> flagged;
  for (const SwitchBandwidthAlert& a : report.switch_bandwidth_alerts) {
    flagged.insert(a.switch_id.value());
  }
  double normal_lo = 1e9, normal_hi = 0, bad_lo = 1e9, bad_hi = 0;
  for (const auto& [sw, bw] : report.switch_bandwidth_gbps) {
    const bool is_degraded = degraded.count(sw.value()) != 0;
    std::printf("  %6u | %-5s | %8.1f | %s\n", sw.value(),
                sim.topology.is_leaf(sw) ? "leaf" : "spine", bw,
                flagged.count(sw.value()) ? "ALERT" : "");
    if (is_degraded) {
      bad_lo = std::min(bad_lo, bw);
      bad_hi = std::max(bad_hi, bw);
    } else {
      normal_lo = std::min(normal_lo, bw);
      normal_hi = std::max(normal_hi, bw);
    }
  }

  std::printf(
      "\nhealthy switches: %.0f-%.0f Gb/s   (paper: 100-180 Gb/s)\n"
      "degraded switches: %.0f-%.0f Gb/s  (paper: 30-60 Gb/s)\n",
      normal_lo, normal_hi, bad_lo, bad_hi);

  const bool exact = flagged == degraded;
  std::printf("alerts raised on: ");
  for (const std::uint32_t sw : flagged) std::printf("sw%u ", sw);
  std::printf("  (injected: sw1 sw5 sw13) -> %s\n",
              exact ? "exact match" : "MISMATCH");
  return exact ? 0 : 1;
}
