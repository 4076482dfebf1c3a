// LLM training-job recognition from network flows (paper Alg. 1, §IV-A).
//
// Phase 1: a disjoint-set over flow endpoints merges every communicating
// GPU pair, yielding *cross-machine clusters* — one per network-connected
// component. A 3D-parallel job produces `tp` such components (its TP
// traffic is intra-node and invisible), so phase 2 merges clusters whose
// physical *machine sets* are identical (each GPU's machine looked up from
// the provider-known topology) into complete job-level clusters.
#pragma once

#include <cstddef>
#include <unordered_set>
#include <vector>

#include "llmprism/common/ids.hpp"
#include "llmprism/flow/view.hpp"
#include "llmprism/topology/topology.hpp"

namespace llmprism {

struct JobRecognitionConfig {
  /// Expand each job to all GPUs hosted on its machines (GPUs that only do
  /// intra-node TP traffic never appear in flows but belong to the job).
  bool include_machine_local_gpus = true;
};

/// One recognized job-level cluster.
struct RecognizedJob {
  /// All GPUs attributed to the job, ascending. With
  /// include_machine_local_gpus this covers whole machines; otherwise only
  /// GPUs observed in flows.
  std::vector<GpuId> gpus;
  /// GPUs that actually appeared as flow endpoints.
  std::vector<GpuId> observed_gpus;
  /// Machines spanned by the job.
  std::vector<MachineId> machines;
  /// The cross-machine clusters (phase-1 components) merged into this job.
  std::vector<std::vector<GpuId>> cross_machine_clusters;
};

struct JobRecognitionResult {
  std::vector<RecognizedJob> jobs;  ///< ordered by smallest GPU id
  std::size_t num_cross_machine_clusters = 0;  ///< phase-1 component count
};

class JobRecognizer {
 public:
  explicit JobRecognizer(const ClusterTopology& topology,
                         JobRecognitionConfig config = {});

  /// Recognize all network-visible jobs in `view`. Jobs with zero
  /// cross-machine traffic in the window cannot be observed and are absent.
  /// Reads only the src/dst columns; the partition is a pure function of
  /// the undirected edge set, independent of row order.
  [[nodiscard]] JobRecognitionResult recognize(const FlowView& view) const;

 private:
  const ClusterTopology& topology_;
  JobRecognitionConfig config_;
};

}  // namespace llmprism
