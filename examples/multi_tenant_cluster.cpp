// Multi-tenant platform scenario: a 1,024-GPU cluster running a mix of
// tenant jobs with different sizes and parallelism strategies. LLMPrism
// recognizes every network-visible job from one minute of flows and infers
// each job's parallelism layout — without any tenant cooperation.
//
// Run:  ./examples/multi_tenant_cluster [flows.csv]
// With an argument, the simulated flow trace is also exported as CSV (the
// same schema a production collector would deliver).
#include <iostream>

#include "llmprism/llmprism.hpp"

using namespace llmprism;

namespace {

JobSimConfig tenant_job(std::uint32_t tp, std::uint32_t dp, std::uint32_t pp,
                        std::uint32_t micro_batches, bool zero) {
  JobSimConfig cfg;
  cfg.parallelism = {.tp = tp, .dp = dp, .pp = pp,
                     .micro_batches = micro_batches};
  cfg.zero_overlap = zero;
  cfg.num_steps = 8;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  ClusterSimConfig sim_config;
  sim_config.topology = {.num_machines = 128,
                         .gpus_per_machine = 8,
                         .machines_per_leaf = 16,
                         .num_spines = 4};
  sim_config.seed = 7;

  // A realistic tenant mix: big pretraining jobs, mid-size fine-tunes,
  // small experiments.
  sim_config.jobs.push_back({tenant_job(8, 16, 4, 8, false), {}});  // 512 GPU
  sim_config.jobs.push_back({tenant_job(8, 8, 2, 8, true), {}});    // 128 GPU
  sim_config.jobs.push_back({tenant_job(8, 4, 2, 4, false), {}});   // 64 GPU
  sim_config.jobs.push_back({tenant_job(4, 8, 2, 4, false), {}});   // 64 GPU
  sim_config.jobs.push_back({tenant_job(8, 2, 2, 4, false), {}});   // 32 GPU
  sim_config.jobs.push_back({tenant_job(8, 4, 1, 4, true), {}});    // 32 GPU

  std::cout << "simulating 6 tenant jobs on a 1024-GPU cluster...\n";
  const ClusterSimResult sim = run_cluster_sim(sim_config);
  std::cout << "collector delivered " << sim.trace.size() << " flows over "
            << to_seconds(sim.trace.view().time_span().length()) << " s\n\n";

  if (argc > 1) {
    write_csv_file(argv[1], sim.trace);
    std::cout << "flow trace exported to " << argv[1] << "\n\n";
  }

  PrismConfig config;
  config.reconstruct_timelines = false;  // recognition + parallelism only
  const Prism prism(sim.topology, config);
  const PrismReport report = prism.analyze(sim.trace);

  std::cout << "recognized " << report.jobs.size() << " jobs from "
            << report.recognition.num_cross_machine_clusters
            << " cross-machine clusters:\n";
  std::cout << "  job | GPUs | machines | DP pairs | PP pairs | DP groups\n";
  std::cout << "  ----+------+----------+----------+----------+----------\n";
  for (const JobAnalysis& job : report.jobs) {
    std::size_t dp = 0, pp = 0;
    for (const PairClassification& p : job.comm_types.pairs) {
      (p.type == CommType::kDP ? dp : pp) += 1;
    }
    std::printf("  %3u | %4zu | %8zu | %8zu | %8zu | %9zu\n",
                job.id.value(), job.job.gpus.size(), job.job.machines.size(),
                dp, pp, job.comm_types.dp_components.size());
  }

  // Cross-check against simulator ground truth (a tenant would have to
  // confirm this manually on a real platform, as in the paper's §V-A).
  std::size_t exact = 0;
  for (const JobAnalysis& job : report.jobs) {
    for (const JobTruth& truth : sim.jobs) {
      std::vector<GpuId> expected = truth.gpus;
      std::sort(expected.begin(), expected.end());
      if (expected == job.job.gpus) {
        ++exact;
        break;
      }
    }
  }
  std::cout << "\nground truth: " << exact << '/' << sim.jobs.size()
            << " jobs recognized with exactly the right GPU sets\n";
  return 0;
}
