// ClusterSim: a multi-tenant training platform in miniature.
//
// Places several independently configured training jobs onto disjoint
// machine sets of one cluster topology, generates each job's flows with an
// independent random stream, merges everything into the single trace a
// switch-level collector would deliver, then applies collection noise and
// injected network faults.
#pragma once

#include <cstdint>
#include <vector>

#include "llmprism/simulator/faults.hpp"
#include "llmprism/simulator/ground_truth.hpp"
#include "llmprism/simulator/job_config.hpp"
#include "llmprism/simulator/job_sim.hpp"
#include "llmprism/simulator/noise.hpp"
#include "llmprism/topology/topology.hpp"

namespace llmprism {

struct ClusterJobSpec {
  JobSimConfig config;
  /// Machines to place the job on; empty = allocate the next free machines.
  std::vector<MachineId> machines;
};

struct ClusterSimConfig {
  TopologyConfig topology;
  std::vector<ClusterJobSpec> jobs;
  NoiseConfig noise;
  std::vector<SwitchDegradationSpec> switch_faults;
  std::uint64_t seed = 42;
};

struct ClusterSimResult {
  ClusterTopology topology;
  FlowColumns trace;                      ///< merged, noisy, sorted
  std::vector<JobTruth> jobs;             ///< truth per job, JobId = index
  std::vector<InjectedAnomaly> anomalies; ///< all injected faults, labelled
};

/// Runs the full cluster simulation. Deterministic given config.seed.
/// Throws std::invalid_argument if jobs do not fit the topology or machine
/// sets overlap.
[[nodiscard]] ClusterSimResult run_cluster_sim(const ClusterSimConfig& config);

}  // namespace llmprism
