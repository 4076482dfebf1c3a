#include "llmprism/core/job_recognition.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "llmprism/common/disjoint_set.hpp"
#include "llmprism/common/stats.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

JobRecognizer::JobRecognizer(const ClusterTopology& topology,
                             JobRecognitionConfig config)
    : topology_(topology), config_(config) {
  if (config_.jaccard_threshold <= 0.0 || config_.jaccard_threshold > 1.0) {
    throw std::invalid_argument(
        "job recognition: jaccard_threshold must be in (0, 1]");
  }
}

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

  // ---- phase 2: merge clusters with matching machine sets (lines 9-13) ----
  std::vector<std::vector<GpuId>> clusters;
  std::vector<std::unordered_set<MachineId>> machine_sets;
  clusters.reserve(components.size());
  for (const auto& comp : components) {
    std::vector<GpuId> gpus;
    gpus.reserve(comp.size());
    std::unordered_set<MachineId> machines;
    for (const std::size_t idx : comp) {
      gpus.push_back(gpu_of[idx]);
      machines.insert(topology_.machine_of(gpu_of[idx]));
    }
    std::sort(gpus.begin(), gpus.end());
    clusters.push_back(std::move(gpus));
    machine_sets.push_back(std::move(machines));
  }

  DisjointSet cluster_sets(clusters.size());
  if (config_.jaccard_threshold == 1.0) {
    // Exact machine-set equality: hash by canonical key, O(C).
    std::map<std::vector<MachineId>, std::size_t> by_key;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      std::vector<MachineId> key(machine_sets[c].begin(),
                                 machine_sets[c].end());
      std::sort(key.begin(), key.end());
      const auto [it, inserted] = by_key.emplace(std::move(key), c);
      if (!inserted) cluster_sets.unite(it->second, c);
    }
  } else {
    // Thresholded Jaccard: pairwise, O(C^2) over cluster count (small).
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      for (std::size_t j = i + 1; j < clusters.size(); ++j) {
        if (stats::jaccard(machine_sets[i], machine_sets[j]) >=
            config_.jaccard_threshold) {
          cluster_sets.unite(i, j);
        }
      }
    }
  }

  // ---- assemble job-level clusters ----
  for (const auto& merged : cluster_sets.groups(/*include_singletons=*/true)) {
    RecognizedJob job;
    std::unordered_set<MachineId> machines;
    for (const std::size_t c : merged) {
      job.cross_machine_clusters.push_back(clusters[c]);
      job.observed_gpus.insert(job.observed_gpus.end(), clusters[c].begin(),
                               clusters[c].end());
      machines.insert(machine_sets[c].begin(), machine_sets[c].end());
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
    job.machines.assign(machines.begin(), machines.end());
    std::sort(job.machines.begin(), job.machines.end());

    if (config_.include_machine_local_gpus) {
      for (const MachineId m : job.machines) {
        const auto local = topology_.gpus_on(m);
        job.gpus.insert(job.gpus.end(), local.begin(), local.end());
      }
      std::sort(job.gpus.begin(), job.gpus.end());
    } else {
      job.gpus = job.observed_gpus;
    }
    result.jobs.push_back(std::move(job));
  }

  std::sort(result.jobs.begin(), result.jobs.end(),
            [](const RecognizedJob& a, const RecognizedJob& b) {
              return a.gpus.front() < b.gpus.front();
            });
  return result;
}

}  // namespace llmprism
