#include "llmprism/core/comm_type.hpp"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "llmprism/common/stats.hpp"
#include "llmprism/common/thread_pool.hpp"

namespace llmprism {

namespace {

/// Flow sizes within this relative tolerance count as one distinct size
/// (absorbs collector size-reporting jitter; DP buckets differ by far more).
constexpr double kSizeTolerance = 0.05;

/// Size clusters carrying less than this fraction of a pair's flows are
/// collector artifacts (partially recorded flows), not bucket structure,
/// and are ignored when counting distinct sizes. Without this, ONE partial
/// record can flip a PP pair to DP, whose false edge then bridges two DP
/// components and the refinement flips every PP pair between the two
/// stages (a transitivity cascade). Real DP buckets each carry far more
/// than this share.
constexpr double kMinSizeShare = 0.03;

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

std::size_t CommTypeIdentifier::count_distinct_sizes(
    std::vector<std::uint64_t> sizes) const {
  if (sizes.empty()) return 0;
  std::sort(sizes.begin(), sizes.end());
  std::size_t distinct = 1;
  std::uint64_t cluster_base = sizes.front();
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    const double limit =
        static_cast<double>(cluster_base) * (1.0 + kSizeTolerance);
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

    // (1) inter-flow intervals, in time order.
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
    const GapSeries series = build_gap_series(timestamps);

    // Pair-level size clusters with tolerance merging; clusters carrying
    // less than kMinSizeShare of the pair's flows are collector artifacts
    // (partial records) and are ignored below.
    struct SizeCluster {
      std::uint64_t base;
      std::uint64_t max;
      std::size_t count = 0;
      bool kept = true;
    };
    std::vector<SizeCluster> clusters;
    std::size_t kept_clusters = 0;
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
                    (1.0 + kSizeTolerance)) {
          clusters.push_back({s, s, 1, true});
        } else {
          clusters.back().max = s;
          ++clusters.back().count;
        }
      }
      const double min_count =
          kMinSizeShare * static_cast<double>(sizes.size());
      for (SizeCluster& c : clusters) {
        c.kept = static_cast<double>(c.count) >= min_count;
        if (c.kept) {
          ++kept_clusters;
        } else {
          ++counters.artifact_size_clusters;
          counters.artifact_flows += c.count;
        }
      }
    }

    // Size cluster of every flow, in time order.
    std::vector<std::uint32_t> cluster_of_flow;
    cluster_of_flow.reserve(ordered.size());
    for (const std::size_t i : ordered) {
      // Last cluster whose base <= size; sizes were all in the build set.
      const auto it = std::upper_bound(
          clusters.begin(), clusters.end(), view.bytes[i],
          [](std::uint64_t s, const SizeCluster& c) { return s < c.base; });
      cluster_of_flow.push_back(
          static_cast<std::uint32_t>(it - clusters.begin() - 1));
    }
    // Distinct kept clusters among flows [begin, end) via epoch stamping:
    // clusters are few and dense, so a stamp array beats a hash set and
    // stays deterministic (only the count is used).
    std::vector<std::uint32_t> cluster_stamp(clusters.size(), 0);
    std::uint32_t epoch = 0;
    const auto distinct_kept = [&](std::size_t begin, std::size_t end) {
      ++epoch;
      std::size_t seen = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t c = cluster_of_flow[i];
        if (clusters[c].kept && cluster_stamp[c] != epoch) {
          cluster_stamp[c] = epoch;
          ++seen;
        }
      }
      return seen;
    };

    // (2) shortcut: BOCD opens segments only at gap candidates, so every
    // step it could find is a union of consecutive candidate runs. If every
    // run holds >= 2 kept clusters, so does every step: Mode(N_k) >= 2, DP.
    // If the pair has at most one kept cluster and every run holds it, every
    // step holds exactly it: Mode(N_k) == 1, PP. Neither case has an
    // artifact-only step, so the detector's answer is known without running
    // it; the pair reports no observed steps, as a warm-reused pair does.
    bool runs_multi = true;
    bool runs_single = true;
    std::size_t run_begin = 0;
    const auto visit_run = [&](std::size_t run_end) {
      const std::size_t seen = distinct_kept(run_begin, run_end);
      runs_multi = runs_multi && seen >= 2;
      runs_single = runs_single && seen == 1;
      run_begin = run_end;
    };
    for (std::size_t i = 0;
         i < series.log_intervals.size() && (runs_multi || runs_single);
         ++i) {
      if (series.is_candidate(i)) visit_run(series.groups[i + 1]);
    }
    visit_run(ordered.size());
    if (runs_multi || (runs_single && kept_clusters <= 1)) {
      pc.pre_refinement_type = runs_multi ? CommType::kDP : CommType::kPP;
      pc.type = pc.pre_refinement_type;
      pc.num_steps_observed = 0;
      result.pairs[pair_id] = std::move(pc);
      return;
    }

    // (3) step division via BOCD over the gap series; distinct
    // (non-artifact) flow sizes per step; Mode over steps.
    const auto segment_starts =
        segment_gap_series(series, {}, &counters.segmenter);
    pc.num_steps_observed = segment_starts.size();
    std::vector<std::int64_t> distinct_per_step;
    distinct_per_step.reserve(segment_starts.size());
    for (std::size_t s = 0; s < segment_starts.size(); ++s) {
      const std::size_t seg_end = s + 1 < segment_starts.size()
                                      ? segment_starts[s + 1]
                                      : ordered.size();
      const std::size_t seen = distinct_kept(segment_starts[s], seg_end);
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
