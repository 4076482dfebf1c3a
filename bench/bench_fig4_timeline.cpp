// Reproduces §V-C and Fig. 4: training-timeline reconstruction accuracy on
// a 1,024-GPU job, scored against the oracle (profiler-equivalent) step
// boundaries, plus the Fig. 4-style per-rank timeline visualization.
//
// Paper result: reconstruction error within 0.3%.
#include <cstdio>

#include "bench_util.hpp"
#include "llmprism/baseline/eval.hpp"
#include "llmprism/core/comm_type.hpp"
#include "llmprism/core/render.hpp"
#include "llmprism/core/timeline.hpp"

using namespace llmprism;
using namespace llmprism::bench;

int main() {
  std::printf(
      "=== Fig. 4 / SS V-C: timeline reconstruction on a 1,024-GPU job "
      "===\n\n");

  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 128,
                  .gpus_per_machine = 8,
                  .machines_per_leaf = 16,
                  .num_spines = 8};
  cfg.seed = 4242;
  cfg.jobs.push_back({thousand_gpu_job(8, 16, 8, false, 60), {}});
  // Light collection noise: the paper's production collector is imperfect.
  cfg.noise.drop_rate = 0.005;
  cfg.noise.time_jitter = 50 * kMicrosecond;

  Stopwatch sim_watch;
  const ClusterSimResult sim = run_cluster_sim(cfg);
  std::printf("simulated %zu flows over %.0f s (%.1f s)\n", sim.trace.size(),
              to_seconds(sim.trace.view().time_span().length()), sim_watch.seconds());

  Stopwatch watch;
  const Classified c = classify(sim.trace);
  const TimelineReconstructor reconstructor;
  const auto timelines =
      reconstructor.reconstruct_all(sim.trace.view(), c.flow_types);
  const double elapsed = watch.seconds();

  const auto score = score_timelines(std::span(timelines), sim.jobs[0]);
  std::printf("analysis wall time        : %.1f s\n", elapsed);
  std::printf("GPU ranks reconstructed   : %zu\n", timelines.size());
  std::printf("ranks scored vs oracle    : %zu\n", score.ranks_scored);
  std::printf("step boundaries matched   : %.1f%%  (%zu / %zu)\n",
              100.0 * score.matched_fraction(), score.steps_matched,
              score.steps_true_total);
  std::printf("mean step-duration error  : %.4f%%   (paper: < 0.3%%)\n",
              100.0 * score.mean_duration_error);
  std::printf("max  step-duration error  : %.4f%%\n",
              100.0 * score.max_duration_error);
  std::printf("mean boundary offset      : %.2f ms\n\n",
              1e3 * score.mean_boundary_offset_s);

  // Fig. 4-style visualization: one pipeline's 8 stages over two steps.
  // Pick the ranks of the first PP chain: with tp=8 and Megatron order,
  // stage s of lane (t=0, d=0) is rank s*dp*tp = s*128.
  std::vector<GpuTimeline> lanes;
  for (std::uint32_t s = 0; s < 8; ++s) {
    const GpuId gpu = sim.jobs[0].gpus[static_cast<std::size_t>(s) * 128];
    for (const GpuTimeline& t : timelines) {
      if (t.gpu == gpu) lanes.push_back(t);
    }
  }
  RenderOptions options;
  options.width = 110;
  if (!lanes.empty() && lanes.front().steps.size() > 4) {
    options.window = {lanes.front().steps[2].begin,
                      lanes.front().steps[4].end};
  }
  std::printf(
      "reconstructed timeline, pipeline stages 0..7 of one lane (2 "
      "steps):\n%s",
      render_timeline_chart(std::span(lanes), options).c_str());

  const bool ok =
      score.mean_duration_error < 0.003 && score.matched_fraction() > 0.95;
  std::printf("\nreproduction %s: error %s 0.3%%\n", ok ? "OK" : "FAILED",
              score.mean_duration_error < 0.003 ? "<" : ">=");
  return ok ? 0 : 1;
}
