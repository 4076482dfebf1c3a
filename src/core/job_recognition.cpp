#include "llmprism/core/job_recognition.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "llmprism/common/disjoint_set.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

namespace {

/// Phase 1 (Alg. 1 lines 1-8): intern every endpoint of the window and
/// union the two ends of each flow. The partition depends only on the
/// undirected edge set, not on row order.
///
/// GPU ids are dense in [0, num_gpus), so the intern table is a flat
/// vector indexed by id — one load per endpoint instead of a hash probe.
/// An id outside the topology raises the std::out_of_range machine_of
/// raises for it; a self-flow (src == dst) never reaches machine_of (it
/// forms no cross-machine cluster), so it is skipped rather than rejected.
struct EndpointUnion {
  static constexpr std::uint32_t kAbsent = 0xffffffffu;
  std::vector<std::uint32_t> index_of;
  std::vector<GpuId> gpu_of;
  DisjointSet sets{0};

  EndpointUnion(const FlowView& view, const ClusterTopology& topology)
      : index_of(topology.num_gpus(), kAbsent) {
    const auto intern = [&](std::uint32_t gpu) {
      std::uint32_t& slot = index_of[gpu];
      if (slot == kAbsent) {
        slot = static_cast<std::uint32_t>(gpu_of.size());
        gpu_of.push_back(GpuId(gpu));
      }
    };
    const std::size_t num_gpus = index_of.size();
    // First pass collects endpoints (DisjointSet needs a fixed size).
    for (std::size_t i = 0; i < view.size(); ++i) {
      const std::uint32_t src = view.src[i];
      const std::uint32_t dst = view.dst[i];
      if (src >= num_gpus || dst >= num_gpus) {
        if (src == dst) continue;
        // Throws: the id is outside the topology.
        (void)topology.machine_of(GpuId(src >= num_gpus ? src : dst));
      }
      intern(src);
      intern(dst);
    }
    sets = DisjointSet(gpu_of.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
      const std::uint32_t src = view.src[i];
      const std::uint32_t dst = view.dst[i];
      if (src == dst) continue;
      sets.unite(index_of[src], index_of[dst]);
    }
  }
};

}  // namespace

JobRecognitionResult JobRecognizer::recognize(const FlowView& view) const {
  EndpointUnion endpoints(view, topology_);
  JobRecognitionResult result;
  std::vector<GpuId>& gpu_of = endpoints.gpu_of;
  DisjointSet& sets = endpoints.sets;

  const auto components = sets.groups(/*include_singletons=*/false);
  result.num_cross_machine_clusters = components.size();

  // ---- phase 2: merge clusters with equal machine sets (lines 9-13) ----
  // Keyed by the canonical (ascending, distinct) machine list, O(C).
  std::vector<std::vector<GpuId>> clusters;
  std::vector<std::vector<MachineId>> machine_sets;
  clusters.reserve(components.size());
  machine_sets.reserve(components.size());
  for (const auto& comp : components) {
    std::vector<GpuId> gpus;
    gpus.reserve(comp.size());
    std::vector<MachineId> machines;
    for (const std::size_t idx : comp) {
      gpus.push_back(gpu_of[idx]);
      machines.push_back(topology_.machine_of(gpu_of[idx]));
    }
    std::sort(gpus.begin(), gpus.end());
    std::sort(machines.begin(), machines.end());
    machines.erase(std::unique(machines.begin(), machines.end()),
                   machines.end());
    clusters.push_back(std::move(gpus));
    machine_sets.push_back(std::move(machines));
  }

  DisjointSet cluster_sets(clusters.size());
  std::map<std::vector<MachineId>, std::size_t> by_key;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const auto [it, inserted] = by_key.emplace(machine_sets[c], c);
    if (!inserted) cluster_sets.unite(it->second, c);
  }

  // ---- assemble job-level clusters ----
  for (const auto& merged : cluster_sets.groups(/*include_singletons=*/true)) {
    RecognizedJob job;
    for (const std::size_t c : merged) {
      job.cross_machine_clusters.push_back(clusters[c]);
      job.observed_gpus.insert(job.observed_gpus.end(), clusters[c].begin(),
                               clusters[c].end());
    }
    // Canonical cluster order (clusters are disjoint and internally
    // sorted, so the first GPU is a total order). This makes the result a
    // pure function of the undirected edge SET, independent of flow order
    // — the invariant the session's recognition fast path relies on.
    std::sort(job.cross_machine_clusters.begin(),
              job.cross_machine_clusters.end(),
              [](const std::vector<GpuId>& a, const std::vector<GpuId>& b) {
                return a.front() < b.front();
              });
    std::sort(job.observed_gpus.begin(), job.observed_gpus.end());
    // Every merged cluster spans this same machine set.
    job.machines = machine_sets[merged.front()];

    for (const MachineId m : job.machines) {
      const auto local = topology_.gpus_on(m);
      job.gpus.insert(job.gpus.end(), local.begin(), local.end());
    }
    std::sort(job.gpus.begin(), job.gpus.end());
    result.jobs.push_back(std::move(job));
  }

  std::sort(result.jobs.begin(), result.jobs.end(),
            [](const RecognizedJob& a, const RecognizedJob& b) {
              return a.gpus.front() < b.gpus.front();
            });
  return result;
}

}  // namespace llmprism
