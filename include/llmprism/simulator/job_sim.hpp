// TrainingJobSim: generates the switch-visible network footprint of one
// 3D-parallel LLM training job, plus ground truth for evaluation.
//
// Per training step it:
//  1. computes a 1F1B pipeline schedule per DP replica (jittered compute),
//  2. emits a fixed-size P2P flow for every cross-machine activation
//     (forward) and gradient (backward) hop — the PP signature,
//  3. emits multi-bucket, multi-channel ring all-reduce flows for every DP
//     group after (or, with ZeRO overlap, during) backward — bucket sizes
//     are uneven, so a DP pair sees several distinct flow sizes per step,
//  4. advances the global step barrier (synchronous training).
#pragma once

#include <cstdint>

#include "llmprism/common/rng.hpp"
#include "llmprism/flow/view.hpp"
#include "llmprism/parallelism/placement.hpp"
#include "llmprism/simulator/ground_truth.hpp"
#include "llmprism/simulator/job_config.hpp"
#include "llmprism/topology/topology.hpp"

namespace llmprism {

struct JobSimResult {
  FlowColumns trace;  ///< cross-machine flows only (switch-level view)
  JobTruth truth;     ///< evaluation oracle
};

class TrainingJobSim {
 public:
  /// `machines` must provide exactly world_size GPUs on `topology`.
  TrainingJobSim(JobId id, JobSimConfig config,
                 std::vector<MachineId> machines,
                 const ClusterTopology& topology);

  /// Generate the full trace; deterministic given `rng`'s state.
  [[nodiscard]] JobSimResult run(Rng& rng) const;

  [[nodiscard]] const JobPlacement& placement() const { return placement_; }
  [[nodiscard]] const RankMap& rank_map() const { return rank_map_; }

 private:
  JobId id_;
  JobSimConfig config_;
  const ClusterTopology& topology_;
  RankMap rank_map_;
  JobPlacement placement_;
};

}  // namespace llmprism
