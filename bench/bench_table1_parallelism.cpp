// Reproduces Table I (§V-B): accuracy of parallelism-strategy
// identification from flow windows of varying length, on five 1,024-GPU
// jobs with ground-truth configurations, with and without the DP
// transitivity refinement.
//
// Paper result:
//   Methods                  | 1 min  | 3 min  | 5 min  | 10 min
//   LLMPrism w/o refinement  | 96.00% | 97.93% | 98.03% | 99.61%
//   LLMPrism                 |  100%  |  100%  |  100%  |  100%
//
// Absolute numbers depend on the (proprietary) collector's noise; the shape
// to reproduce is: no-refinement accuracy in the mid-90s at 1 min, rising
// with window length, and refinement pinning 100% everywhere.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "llmprism/baseline/eval.hpp"
#include "llmprism/core/comm_type.hpp"

using namespace llmprism;
using namespace llmprism::bench;

int main() {
  std::printf(
      "=== Table I: parallelism identification accuracy, five 1,024-GPU "
      "jobs ===\n\n");

  // ~4.2 s steps; 145 steps cover the 10-minute window.
  constexpr std::uint32_t kSteps = 145;
  struct JobSpec {
    const char* name;
    JobSimConfig config;
  };
  const std::vector<JobSpec> specs = {
      {"tp8/dp16/pp8         ", thousand_gpu_job(8, 16, 8, false, kSteps)},
      {"tp8/dp32/pp4 (ZeRO)  ", thousand_gpu_job(8, 32, 4, true, kSteps)},
      {"tp8/dp8/pp16         ", thousand_gpu_job(8, 8, 16, false, kSteps)},
      {"tp4/dp32/pp8         ", thousand_gpu_job(4, 32, 8, false, kSteps)},
      {"tp8/dp64/pp2 (ZeRO)  ", thousand_gpu_job(8, 64, 2, true, kSteps)},
  };
  const std::vector<DurationNs> windows = {1 * kMinute, 3 * kMinute,
                                           5 * kMinute, 10 * kMinute};

  // accuracy[w][0] = w/o refinement, accuracy[w][1] = full LLMPrism,
  // averaged over jobs (the paper reports the average of the five jobs).
  std::vector<std::array<double, 2>> accuracy(windows.size(), {0.0, 0.0});
  std::vector<std::array<double, 2>> worst(windows.size(), {1.0, 1.0});

  for (const JobSpec& spec : specs) {
    ClusterSimConfig cfg;
    cfg.topology = {.num_machines = 128,
                    .gpus_per_machine = 8,
                    .machines_per_leaf = 16,
                    .num_spines = 8};
    cfg.seed = 1024 + spec.config.parallelism.dp;
    cfg.jobs.push_back({spec.config, {}});
    cfg.noise = table1_noise();

    Stopwatch sim_watch;
    const ClusterSimResult sim = run_cluster_sim(cfg);
    std::printf("%s: %8zu flows over %5.0f s  (sim %4.1f s",
                spec.name, sim.trace.size(),
                to_seconds(sim.trace.view().time_span().length()),
                sim_watch.seconds());

    Stopwatch analysis_watch;
    const CommTypeIdentifier identifier;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const FlowView slice = sim.trace.view().window({0, windows[w]});
      const auto result = identifier.identify(slice, PairIndex(slice));
      const auto with = score_comm_type(std::span(result.pairs), sim.jobs[0],
                                        /*use_pre_refinement=*/false);
      const auto without = score_comm_type(std::span(result.pairs),
                                           sim.jobs[0],
                                           /*use_pre_refinement=*/true);
      accuracy[w][0] += without.accuracy();
      accuracy[w][1] += with.accuracy();
      worst[w][0] = std::min(worst[w][0], without.accuracy());
      worst[w][1] = std::min(worst[w][1], with.accuracy());
    }
    std::printf(", analysis %5.1f s)\n", analysis_watch.seconds());
  }

  const auto n = static_cast<double>(specs.size());
  std::printf("\n");
  print_rule();
  std::printf("%-26s", "Methods");
  for (const DurationNs w : windows) {
    std::printf(" | %3.0f min Acc.", to_seconds(w) / 60.0);
  }
  std::printf("\n");
  print_rule();
  std::printf("%-26s", "LLMPrism w/o refinement");
  for (std::size_t w = 0; w < windows.size(); ++w) {
    std::printf(" | %10.2f%%", 100.0 * accuracy[w][0] / n);
  }
  std::printf("\n%-26s", "LLMPrism");
  for (std::size_t w = 0; w < windows.size(); ++w) {
    std::printf(" | %10.2f%%", 100.0 * accuracy[w][1] / n);
  }
  std::printf("\n");
  print_rule();
  std::printf(
      "paper:  w/o refinement 96.00 / 97.93 / 98.03 / 99.61%%; "
      "LLMPrism 100%% everywhere\n");
  std::printf("worst single job with refinement:");
  for (std::size_t w = 0; w < windows.size(); ++w) {
    std::printf(" %.2f%%", 100.0 * worst[w][1]);
  }
  std::printf("\n");

  // Exit status guards the reproduction claims.
  const bool shape_holds =
      accuracy[0][0] < accuracy[windows.size() - 1][0] &&  // rises w/ window
      accuracy[0][0] / n < 0.99 &&                         // noise visible
      accuracy[0][1] / n > 0.999;                          // refinement fixes
  return shape_holds ? 0 : 1;
}
