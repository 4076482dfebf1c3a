// Quickstart: the end-to-end LLMPrism loop in ~60 lines.
//
// 1. Simulate a small multi-tenant cluster (two training jobs).
// 2. Hand LLMPrism only what a platform provider has: the switch-level
//    flow trace and the physical topology.
// 3. Print what it recovered: jobs, parallelism roles, timelines, alerts.
//
// Run:  ./examples/quickstart
#include <iostream>

#include "llmprism/llmprism.hpp"

using namespace llmprism;

int main() {
  // --- a 12-machine (96 GPU) cluster hosting two tenant jobs ---
  ClusterSimConfig sim_config;
  sim_config.topology = {.num_machines = 12,
                         .gpus_per_machine = 8,
                         .machines_per_leaf = 4,
                         .num_spines = 2};

  JobSimConfig llama_like;  // 32 GPUs: tp=8, dp=2, pp=2
  llama_like.parallelism = {.tp = 8, .dp = 2, .pp = 2, .micro_batches = 4};
  llama_like.num_steps = 12;

  JobSimConfig zero_job;    // 32 GPUs: tp=8, dp=4, DeepSpeed-ZeRO overlap
  zero_job.parallelism = {.tp = 8, .dp = 4, .pp = 1, .micro_batches = 4};
  zero_job.num_steps = 12;
  zero_job.zero_overlap = true;

  sim_config.jobs.push_back({llama_like, {}});
  sim_config.jobs.push_back({zero_job, {}});
  const ClusterSimResult sim = run_cluster_sim(sim_config);
  std::cout << "simulated " << sim.trace.size() << " switch-mirrored flows\n\n";

  // --- the black-box analysis: flows + topology in, diagnosis out ---
  const Prism prism(sim.topology);
  const PrismReport report = prism.analyze(sim.trace);

  std::cout << render_report_summary(report) << '\n';

  // --- Fig. 4-style timeline of the first job's first four ranks ---
  const JobAnalysis& job = report.jobs.front();
  const std::size_t lanes = std::min<std::size_t>(4, job.timelines.size());
  // Zoom into two steps in the middle of the window.
  const auto& steps = job.timelines.front().steps;
  RenderOptions options;
  options.width = 100;
  if (steps.size() > 4) {
    options.window = {steps[2].begin, steps[4].end};
  }
  std::cout << "reconstructed timeline (2 training steps, 4 ranks):\n"
            << render_timeline_chart(
                   std::span(job.timelines.data(), lanes), options);
  return 0;
}
