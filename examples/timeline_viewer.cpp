// Timeline viewer: reconstruct and render per-GPU training timelines (the
// paper's Fig. 4 visualization) from a flow trace.
//
// Run:  ./examples/timeline_viewer                  (simulated demo job)
//       ./examples/timeline_viewer flows.csv        (your own trace CSV)
//       ./examples/timeline_viewer flows.csv json   (JSON events to stdout)
#include <iostream>

#include "llmprism/llmprism.hpp"

using namespace llmprism;

namespace {

/// Demo input: one 64-GPU 3D-parallel job.
ClusterSimResult demo_cluster() {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 8,
                  .gpus_per_machine = 8,
                  .machines_per_leaf = 4,
                  .num_spines = 2};
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 2, .pp = 4, .micro_batches = 6};
  job.num_steps = 6;
  cfg.jobs.push_back({job, {}});
  return run_cluster_sim(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  FlowColumns trace;
  TopologyConfig topo_config{.num_machines = 8, .gpus_per_machine = 8,
                             .machines_per_leaf = 4, .num_spines = 2};
  if (argc > 1) {
    // The file loads as owning flow columns in file order; analyze() sorts
    // a copy once at its boundary if they are not in time order.
    trace = read_csv_file(argv[1]);
    // Size the topology to cover the largest GPU id in the trace.
    std::uint32_t max_gpu = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      max_gpu = std::max({max_gpu, trace.src[i], trace.dst[i]});
    }
    topo_config.num_machines = max_gpu / topo_config.gpus_per_machine + 1;
    std::cout << "loaded " << trace.size() << " flows from " << argv[1]
              << "\n";
  } else {
    const auto sim = demo_cluster();
    trace = sim.trace;
    topo_config = sim.topology.config();
    std::cout << "no trace given; simulated a demo job ("
              << trace.size() << " flows)\n";
  }

  const auto topology = ClusterTopology::build(topo_config);
  const Prism prism(topology);
  const PrismReport report = prism.analyze(trace);
  if (report.jobs.empty()) {
    std::cout << "no jobs recognized in the trace\n";
    return 1;
  }

  const JobAnalysis& job = report.jobs.front();
  const bool as_json = argc > 2 && std::string_view(argv[2]) == "json";
  if (as_json) {
    write_timeline_json(std::cout, std::span(job.timelines));
    return 0;
  }

  std::cout << "job 0: " << job.job.gpus.size() << " GPUs, "
            << job.comm_types.dp_components.size() << " DP groups\n";
  if (!job.timelines.empty() && !job.timelines.front().steps.empty()) {
    const auto& steps = job.timelines.front().steps;
    std::cout << "reconstructed " << steps.size() << " training steps; "
              << "mean duration "
              << to_seconds(steps.back().end - steps.front().end) /
                     static_cast<double>(steps.size() - 1)
              << " s\n\n";
  }

  // Render one pipeline's ranks (first 8 timelines), zoomed to two steps.
  const std::size_t lanes = std::min<std::size_t>(8, job.timelines.size());
  RenderOptions options;
  options.width = 110;
  const auto& steps = job.timelines.front().steps;
  if (steps.size() >= 4) {
    options.window = {steps[1].begin, steps[3].end};
  }
  std::cout << render_timeline_chart(std::span(job.timelines.data(), lanes),
                                     options);
  return 0;
}
