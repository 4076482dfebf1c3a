#include "llmprism/core/comm_type.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "llmprism/common/stats.hpp"
#include "llmprism/common/thread_pool.hpp"

namespace llmprism {

namespace {

/// Iterative DFS collecting the connected component of `start` in an
/// adjacency-list graph.
std::vector<std::size_t> dfs_component(
    std::size_t start, const std::vector<std::vector<std::size_t>>& adj,
    std::vector<bool>& visited) {
  std::vector<std::size_t> component;
  std::vector<std::size_t> stack{start};
  visited[start] = true;
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    component.push_back(u);
    for (const std::size_t v : adj[u]) {
      if (!visited[v]) {
        visited[v] = true;
        stack.push_back(v);
      }
    }
  }
  return component;
}

}  // namespace

std::unordered_map<GpuPair, CommType> CommTypeResult::types() const {
  std::unordered_map<GpuPair, CommType> out;
  out.reserve(pairs.size());
  for (const PairClassification& p : pairs) out.emplace(p.pair, p.type);
  return out;
}

CommTypeIdentifier::CommTypeIdentifier(CommTypeConfig config)
    : config_(config) {
  if (config_.size_tolerance < 0.0 || config_.size_tolerance >= 1.0) {
    throw std::invalid_argument(
        "comm type: size_tolerance must be in [0, 1)");
  }
}

std::size_t CommTypeIdentifier::count_distinct_sizes(
    std::vector<std::uint64_t> sizes) const {
  if (sizes.empty()) return 0;
  std::sort(sizes.begin(), sizes.end());
  std::size_t distinct = 1;
  std::uint64_t cluster_base = sizes.front();
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    const double limit =
        static_cast<double>(cluster_base) * (1.0 + config_.size_tolerance);
    if (static_cast<double>(sizes[i]) > limit) {
      ++distinct;
      cluster_base = sizes[i];
    }
  }
  return distinct;
}

CommTypeResult CommTypeIdentifier::identify(
    const FlowView& view, const PairIndex& pair_index,
    std::vector<CommType>* flow_types, CommTypeCarry* carry,
    ThreadPool* pool) const {
  CommTypeResult result;
  // CSR positions preserve trace order, so on a sorted trace every pair's
  // flows are already chronological and nothing below re-sorts.
  const bool trace_sorted = view.sorted;
  if (carry != nullptr) {
    carry->pairs_reused = 0;
    carry->pairs_reclassified = 0;
  }

  // ---- per-pair classification (Alg. 2 lines 2-12) ----
  // Pairs fan out across the pool (the caller's per-job task participates,
  // so a null or busy pool degenerates to the sequential in-order loop).
  // Every pair owns slot `pair_id` in `result.pairs` and a private counter
  // slot; `carry->pre_types` is only read here (rebuilt after the loop) and
  // the pooled BOCD detector is thread-local, so iterations share no
  // mutable state. Counters fold in pair-id order below — the result is
  // bit-identical at any thread count. result.pairs[id] corresponds to
  // dense pair id `id` until the final deterministic re-sort.
  const std::size_t num_pairs = pair_index.num_pairs();
  result.pairs.resize(num_pairs);
  std::vector<CommTypeCounters> slot_counters(num_pairs);
  // 0 = cold, 1 = warm-reused, 2 = reclassified (carry telemetry).
  std::vector<std::uint8_t> slot_warmth(num_pairs, 0);
  parallel_for(pool, num_pairs, [&](std::size_t pair_id) {
    CommTypeCounters& counters = slot_counters[pair_id];
    const std::span<const std::size_t> flow_idxs =
        pair_index.positions(pair_id);
    PairClassification pc;
    pc.pair = pair_index.pair(pair_id);
    pc.num_flows = flow_idxs.size();

    // Warm fast path: when the whole window's distinct-size count agrees
    // with the carried pre-refinement type, skip the BOCD step division.
    // A one-cluster window provably yields Mode(N_k) == 1 (every subset of
    // a single tolerance cluster is a single cluster), so reusing PP is
    // exact; a multi-size window reusing DP matches the cold mode on any
    // steady DP pair. Disagreement (or a pair with no prior) falls through
    // to the full classification.
    if (carry != nullptr) {
      const auto prior = carry->pre_types.find(pc.pair);
      if (prior != carry->pre_types.end()) {
        std::vector<std::uint64_t> sizes;
        sizes.reserve(flow_idxs.size());
        for (const std::size_t i : flow_idxs) {
          sizes.push_back(view.bytes[i]);
        }
        const std::size_t distinct = count_distinct_sizes(std::move(sizes));
        const CommType evidence =
            distinct <= 1 ? CommType::kPP : CommType::kDP;
        if (evidence == prior->second) {
          pc.pre_refinement_type = prior->second;
          pc.type = pc.pre_refinement_type;
          // BOCD was skipped: no step observations this window (documented
          // work-telemetry difference of the warm path).
          pc.num_steps_observed = 0;
          slot_warmth[pair_id] = 1;
          result.pairs[pair_id] = std::move(pc);
          return;
        }
      }
      slot_warmth[pair_id] = 2;
    }

    // (1)+(2) step division via BOCD over inter-flow intervals.
    std::vector<TimeNs> timestamps;
    timestamps.reserve(flow_idxs.size());
    for (const std::size_t i : flow_idxs) {
      timestamps.push_back(view.start_ns[i]);
    }
    // Unsorted-input fallback: order this pair's flows by time so segments
    // map back to sizes.
    std::span<const std::size_t> ordered = flow_idxs;
    std::vector<std::size_t> ordered_storage;
    if (!trace_sorted &&
        !std::is_sorted(timestamps.begin(), timestamps.end())) {
      std::sort(timestamps.begin(), timestamps.end());
      ordered_storage.assign(flow_idxs.begin(), flow_idxs.end());
      std::stable_sort(ordered_storage.begin(), ordered_storage.end(),
                       [&](std::size_t a, std::size_t b) {
                         return view.start_ns[a] < view.start_ns[b];
                       });
      ordered = ordered_storage;
    }

    const auto segment_starts = segment_by_gaps(timestamps, config_.segmenter,
                                                &counters.segmenter);
    pc.num_steps_observed = segment_starts.size();

    // Pair-level size clusters with tolerance merging; clusters carrying
    // less than min_size_share of the pair's flows are collector artifacts
    // (partial records) and are ignored below — see CommTypeConfig.
    struct SizeCluster {
      std::uint64_t base;
      std::uint64_t max;
      std::size_t count = 0;
      bool kept = true;
    };
    std::vector<SizeCluster> clusters;
    {
      std::vector<std::uint64_t> sizes;
      sizes.reserve(ordered.size());
      for (const std::size_t i : ordered) {
        sizes.push_back(view.bytes[i]);
      }
      std::sort(sizes.begin(), sizes.end());
      for (const std::uint64_t s : sizes) {
        if (clusters.empty() ||
            static_cast<double>(s) >
                static_cast<double>(clusters.back().base) *
                    (1.0 + config_.size_tolerance)) {
          clusters.push_back({s, s, 1, true});
        } else {
          clusters.back().max = s;
          ++clusters.back().count;
        }
      }
      const double min_count =
          config_.min_size_share * static_cast<double>(sizes.size());
      for (SizeCluster& c : clusters) {
        c.kept = static_cast<double>(c.count) >= min_count;
        if (!c.kept) {
          ++counters.artifact_size_clusters;
          counters.artifact_flows += c.count;
        }
      }
    }
    const auto cluster_of = [&](std::uint64_t size) -> std::size_t {
      // Last cluster whose base <= size; sizes were all in the build set.
      const auto it = std::upper_bound(
          clusters.begin(), clusters.end(), size,
          [](std::uint64_t s, const SizeCluster& c) { return s < c.base; });
      return static_cast<std::size_t>(it - clusters.begin()) - 1;
    };

    // (3) distinct (non-artifact) flow sizes per step; Mode over steps.
    std::vector<std::int64_t> distinct_per_step;
    distinct_per_step.reserve(segment_starts.size());
    // Distinct clusters per segment via epoch stamping: clusters are few
    // and dense, so a stamp array beats a hash set and stays deterministic
    // (only the count is used).
    std::vector<std::uint32_t> cluster_stamp(clusters.size(), 0);
    std::uint32_t epoch = 0;
    for (std::size_t s = 0; s < segment_starts.size(); ++s) {
      const std::size_t seg_begin = segment_starts[s];
      const std::size_t seg_end = s + 1 < segment_starts.size()
                                      ? segment_starts[s + 1]
                                      : ordered.size();
      ++epoch;
      std::size_t seen = 0;
      for (std::size_t i = seg_begin; i < seg_end; ++i) {
        const std::size_t c = cluster_of(view.bytes[ordered[i]]);
        if (clusters[c].kept && cluster_stamp[c] != epoch) {
          cluster_stamp[c] = epoch;
          ++seen;
        }
      }
      // A segment of pure artifacts carries no size evidence: skip it.
      if (seen != 0) {
        distinct_per_step.push_back(static_cast<std::int64_t>(seen));
      } else {
        ++counters.artifact_segments;
      }
    }
    const std::int64_t mode_distinct =
        distinct_per_step.empty() ? 1 : stats::mode(distinct_per_step);
    pc.pre_refinement_type =
        mode_distinct == 1 ? CommType::kPP : CommType::kDP;
    pc.type = pc.pre_refinement_type;
    result.pairs[pair_id] = std::move(pc);
  });

  // Fold the per-pair telemetry in pair-id order (integer event counts, so
  // the totals equal the old in-loop accumulation exactly).
  for (std::size_t pair_id = 0; pair_id < num_pairs; ++pair_id) {
    result.counters += slot_counters[pair_id];
    if (carry != nullptr) {
      if (slot_warmth[pair_id] == 1) ++carry->pairs_reused;
      if (slot_warmth[pair_id] == 2) ++carry->pairs_reclassified;
    }
  }

  // ---- DP graph + DFS components (Alg. 2 lines 13-16) ----
  // Built from pre-refinement DP edges; flipping PP->DP inside a component
  // never changes connectivity, so components are final.
  std::unordered_map<GpuId, std::size_t> node_index;
  std::vector<GpuId> nodes;
  auto intern = [&](GpuId g) {
    const auto [it, inserted] = node_index.emplace(g, nodes.size());
    if (inserted) nodes.push_back(g);
    return it->second;
  };
  for (const PairClassification& p : result.pairs) {
    intern(p.pair.first);
    intern(p.pair.second);
  }
  std::vector<std::vector<std::size_t>> adj(nodes.size());
  for (const PairClassification& p : result.pairs) {
    if (p.pre_refinement_type != CommType::kDP) continue;
    const std::size_t u = node_index.at(p.pair.first);
    const std::size_t v = node_index.at(p.pair.second);
    adj[u].push_back(v);
    adj[v].push_back(u);
  }

  std::vector<bool> visited(nodes.size(), false);
  std::vector<std::size_t> component_of(nodes.size(), SIZE_MAX);
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (visited[n] || adj[n].empty()) continue;
    const auto comp = dfs_component(n, adj, visited);
    std::vector<GpuId> gpus;
    gpus.reserve(comp.size());
    for (const std::size_t idx : comp) {
      component_of[idx] = result.dp_components.size();
      gpus.push_back(nodes[idx]);
    }
    std::sort(gpus.begin(), gpus.end());
    result.dp_components.push_back(std::move(gpus));
  }

  for (PairClassification& p : result.pairs) {
    if (p.type != CommType::kPP) continue;
    const std::size_t cu = component_of[node_index.at(p.pair.first)];
    const std::size_t cv = component_of[node_index.at(p.pair.second)];
    if (cu != SIZE_MAX && cu == cv) {
      p.type = CommType::kDP;
      ++result.counters.refinement_flips;
    }
  }

  // Per-flow types via dense pair-id lookup: result.pairs is still in
  // pair-id order here (the deterministic re-sort below breaks that).
  if (flow_types != nullptr) {
    std::vector<CommType> type_of_pair(result.pairs.size());
    for (std::size_t id = 0; id < result.pairs.size(); ++id) {
      type_of_pair[id] = result.pairs[id].type;
    }
    const std::span<const std::uint32_t> pair_of_flow =
        pair_index.pair_of_flow();
    flow_types->resize(view.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
      (*flow_types)[i] = type_of_pair[pair_of_flow[i]];
    }
  }

  // Refresh the carry with this window's evidence. Pairs absent from the
  // window lose their prior (an idle-then-returning pair is re-classified
  // from scratch — conservative, never stale).
  if (carry != nullptr) {
    carry->pre_types.clear();
    carry->pre_types.reserve(result.pairs.size());
    for (const PairClassification& p : result.pairs) {
      carry->pre_types.emplace(p.pair, p.pre_refinement_type);
    }
  }

  // Deterministic output order.
  std::sort(result.pairs.begin(), result.pairs.end(),
            [](const PairClassification& a, const PairClassification& b) {
              return a.pair < b.pair;
            });
  std::sort(result.dp_components.begin(), result.dp_components.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return result;
}

}  // namespace llmprism
