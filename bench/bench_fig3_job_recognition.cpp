// Reproduces Fig. 3 (§V-A): LLM training job recognition on a cluster with
// 2,880 GPUs hosting 19 tenant jobs, from a one-minute flow window.
//
// Paper result: LLMPrism first finds the cross-machine clusters (more than
// one per job — TP lanes are invisible at switches), then merges them via
// the physical topology into exactly 19 job-level clusters, manually
// verified correct.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "llmprism/baseline/eval.hpp"
#include "llmprism/core/job_recognition.hpp"

using namespace llmprism;
using namespace llmprism::bench;

namespace {

JobSimConfig tenant(std::uint32_t tp, std::uint32_t dp, std::uint32_t pp,
                    bool zero_overlap = false) {
  JobSimConfig job;
  job.parallelism = {.tp = tp, .dp = dp, .pp = pp, .micro_batches = 4};
  job.zero_overlap = zero_overlap;
  job.num_steps = 12;  // ~8 s of traffic; recognition needs far less
  return job;
}

}  // namespace

int main() {
  std::printf("=== Fig. 3: job recognition on a 2,880-GPU cluster ===\n\n");

  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 360,   // 360 x 8 = 2,880 GPUs
                  .gpus_per_machine = 8,
                  .machines_per_leaf = 18,
                  .num_spines = 8};
  cfg.seed = 2880;

  // 19 tenant jobs with a realistic size mix (2,080 of 2,880 GPUs rented).
  const std::vector<JobSimConfig> jobs = {
      tenant(8, 16, 4),        // 512
      tenant(8, 8, 4),         // 256
      tenant(8, 16, 2, true),  // 256
      tenant(8, 8, 2),         // 128
      tenant(8, 4, 4),         // 128
      tenant(4, 16, 2),        // 128
      tenant(8, 16, 1, true),  // 128
      tenant(8, 4, 2),         // 64
      tenant(8, 2, 4),         // 64
      tenant(4, 8, 2),         // 64
      tenant(8, 8, 1, true),   // 64
      tenant(2, 16, 2),        // 64
      tenant(8, 2, 2),         // 32
      tenant(8, 4, 1),         // 32
      tenant(4, 4, 2),         // 32
      tenant(8, 2, 2, true),   // 32
      tenant(4, 8, 1),         // 32
      tenant(8, 1, 4),         // 32
      tenant(2, 8, 2),         // 32
  };
  std::uint32_t total_gpus = 0;
  for (const auto& j : jobs) {
    cfg.jobs.push_back({j, {}});
    total_gpus += j.parallelism.world_size();
  }
  std::printf("cluster: %u GPUs, %u machines; %zu jobs using %u GPUs\n",
              360 * 8, 360u, jobs.size(), total_gpus);

  Stopwatch sim_watch;
  const ClusterSimResult sim = run_cluster_sim(cfg);
  std::printf("simulated %zu flows in %.1f s\n\n", sim.trace.size(),
              sim_watch.seconds());

  // One-minute window (the whole trace if shorter, as here).
  const TimeWindow window{
      0, std::min<TimeNs>(kMinute, sim.trace.view().time_span().end)};
  const FlowView flows = sim.trace.view().window(window);

  Stopwatch watch;
  const JobRecognizer recognizer(sim.topology);
  const auto result = recognizer.recognize(flows);
  const double elapsed = watch.seconds();
  const auto score = score_job_recognition(result, std::span(sim.jobs));

  std::printf("window length              : %.1f s\n",
              to_seconds(flows.time_span().length()));
  std::printf("flows analyzed             : %zu\n", flows.size());
  std::printf("cross-machine clusters (1) : %zu\n",
              result.num_cross_machine_clusters);
  std::printf("job-level clusters     (2) : %zu   (paper: 19)\n",
              result.jobs.size());
  std::printf("exact GPU-set matches      : %zu / %zu\n", score.exact_matches,
              score.true_jobs);
  std::printf("recognition wall time      : %.2f s\n\n", elapsed);

  std::printf("recognized jobs:\n");
  std::printf("  job | GPUs | machines | phase-1 clusters merged\n");
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    std::printf("  %3zu | %4zu | %8zu | %zu\n", j, result.jobs[j].gpus.size(),
                result.jobs[j].machines.size(),
                result.jobs[j].cross_machine_clusters.size());
  }

  // Deployment-experience extra: how short can the window get?
  std::printf("\nwindow-length robustness (jobs recognized / exact):\n");
  for (const DurationNs w : {kSecond, 2 * kSecond, 5 * kSecond, 10 * kSecond,
                             30 * kSecond, kMinute}) {
    const FlowView slice = sim.trace.view().window({0, w});
    const auto r = recognizer.recognize(slice);
    const auto s = score_job_recognition(r, std::span(sim.jobs));
    std::printf("  %5.0f s window: %2zu jobs, %2zu exact\n", to_seconds(w),
                r.jobs.size(), s.exact_matches);
  }
  return score.perfect() ? 0 : 1;
}
