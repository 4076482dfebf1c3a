#include "llmprism/core/attribution.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "llmprism/common/thread_pool.hpp"
#include "llmprism/common/time.hpp"

namespace llmprism {

namespace {

constexpr double kEps = 1e-12;
/// Self-time baselines below this (seconds) are floored before dividing:
/// a rank that normally shows no compute before its sends cannot yield a
/// meaningful *relative* excess, and an unbounded ratio would let noise
/// outrank a genuine straggler.
constexpr double kMinBaselineSeconds = 1e-4;
constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();

double clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  const double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

/// Sort key that puts an incident's origin in a stable total order.
int kind_order(CulpritKind k) { return static_cast<int>(k); }

std::uint64_t origin_id(const Culprit& c) {
  switch (c.kind) {
    case CulpritKind::kRank: return c.gpu.value();
    case CulpritKind::kDpGroup: return c.dp_group_index;
    case CulpritKind::kSwitch: return c.switch_id.value();
  }
  return 0;
}

bool victim_less(const Victim& a, const Victim& b) {
  return std::tuple(a.job.value(), a.step_index, static_cast<int>(a.kind),
                    a.dp_group_index, a.gpu.value()) <
         std::tuple(b.job.value(), b.step_index, static_cast<int>(b.kind),
                    b.dp_group_index, b.gpu.value());
}

bool incident_less(const AttributedIncident& a, const AttributedIncident& b) {
  return std::tuple(a.job.value(), a.step_begin, a.step_end,
                    kind_order(a.culprits.front().kind),
                    origin_id(a.culprits.front())) <
         std::tuple(b.job.value(), b.step_begin, b.step_end,
                    kind_order(b.culprits.front().kind),
                    origin_id(b.culprits.front()));
}

/// The recovered dependency graph of one job: vertices are the job's GPUs,
/// edges every classified communication pair (PP pipeline adjacency + DP
/// ring membership). Blame travels along these edges, so a victim's "hops"
/// is its BFS distance from the origin vertex set.
struct DependencyGraph {
  std::vector<GpuId> gpus;  ///< ascending
  std::unordered_map<GpuId, std::size_t> index;
  std::vector<std::vector<std::size_t>> adj;

  explicit DependencyGraph(const JobAttributionInput& job) {
    gpus.reserve(job.timelines.size());
    for (const GpuTimeline& t : job.timelines) gpus.push_back(t.gpu);
    std::sort(gpus.begin(), gpus.end());
    gpus.erase(std::unique(gpus.begin(), gpus.end()), gpus.end());
    index.reserve(gpus.size());
    for (std::size_t i = 0; i < gpus.size(); ++i) index.emplace(gpus[i], i);
    adj.resize(gpus.size());
    if (job.comm_types == nullptr) return;
    for (const PairClassification& p : job.comm_types->pairs) {
      const auto a = index.find(p.pair.first);
      const auto b = index.find(p.pair.second);
      if (a == index.end() || b == index.end()) continue;
      adj[a->second].push_back(b->second);
      adj[b->second].push_back(a->second);
    }
  }

  /// BFS distance of every vertex from the origin set (kUnreachable when
  /// no path exists in the recovered graph).
  [[nodiscard]] std::vector<std::size_t> distances(
      std::span<const GpuId> origins) const {
    std::vector<std::size_t> dist(gpus.size(), kUnreachable);
    std::deque<std::size_t> frontier;
    for (const GpuId g : origins) {
      const auto it = index.find(g);
      if (it == index.end() || dist[it->second] == 0) continue;
      dist[it->second] = 0;
      frontier.push_back(it->second);
    }
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop_front();
      for (const std::size_t v : adj[u]) {
        if (dist[v] != kUnreachable) continue;
        dist[v] = dist[u] + 1;
        frontier.push_back(v);
      }
    }
    return dist;
  }

  [[nodiscard]] std::size_t hops_of(const std::vector<std::size_t>& dist,
                                    GpuId g) const {
    const auto it = index.find(g);
    if (it == index.end()) return kUnreachable;
    return dist[it->second];
  }
};

/// One group's contiguous run of cross-group alerts.
struct GroupCluster {
  std::size_t group_index = 0;
  std::size_t step_begin = 0;
  std::size_t step_end = 0;
  std::vector<const GroupAlert*> alerts;  ///< by ascending step
  SwitchId explaining_switch;             ///< invalid when the ring itself
                                          ///< is the deepest explanation
};

/// Victims and evidence accumulating under one alerted switch across jobs.
struct SwitchAccumulator {
  std::vector<Victim> victims;
  IncidentEvidence evidence;
};

std::size_t victim_hops(std::size_t dist, std::size_t extra) {
  if (dist == kUnreachable) return 0;
  return dist + extra;
}

}  // namespace

Attributor::Attributor(AttributionConfig config) : config_(config) {}

std::vector<double> Attributor::step_self_times(const GpuTimeline& t) {
  std::vector<double> out(t.steps.size(), 0.0);
  if (t.steps.empty()) return out;
  std::size_t s = 0;
  for (std::size_t e = 0; e < t.events.size(); ++e) {
    const TimelineEvent& ev = t.events[e];
    if (ev.kind != TimelineEventKind::kPpSend) continue;
    while (s < t.steps.size() && ev.start >= t.steps[s].end) ++s;
    if (s >= t.steps.size()) break;
    if (e == 0 || t.events[e - 1].kind != TimelineEventKind::kCompute) {
      continue;
    }
    out[s] += to_seconds(t.events[e - 1].duration());
  }
  return out;
}

std::vector<std::vector<SwitchId>> Attributor::group_switch_sets(
    const FlowView& job_flows,
    const std::vector<std::vector<GpuId>>& dp_components) {
  // Dense GPU id -> component table (GPU ids are dense); the first
  // component listing a GPU owns it.
  constexpr std::size_t kNoComponent = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> comp_of;
  for (std::size_t c = 0; c < dp_components.size(); ++c) {
    for (const GpuId g : dp_components[c]) {
      if (g.value() >= comp_of.size()) {
        comp_of.resize(static_cast<std::size_t>(g.value()) + 1, kNoComponent);
      }
      if (comp_of[g.value()] == kNoComponent) comp_of[g.value()] = c;
    }
  }
  const auto component = [&](std::uint32_t gpu) {
    return gpu < comp_of.size() ? comp_of[gpu] : kNoComponent;
  };
  std::vector<std::vector<SwitchId>> sets(dp_components.size());
  for (std::size_t i = 0; i < job_flows.size(); ++i) {
    const std::size_t a = component(job_flows.src[i]);
    // Same recovered component on both ends <=> a DP ring flow (PP edges
    // connect distinct pipeline stages, hence distinct components).
    if (a == kNoComponent || a != component(job_flows.dst[i])) continue;
    for (const std::uint32_t sw : job_flows.switches(i)) {
      sets[a].push_back(SwitchId(sw));
    }
  }
  for (std::vector<SwitchId>& s : sets) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }
  return sets;
}

AttributionResult Attributor::attribute(
    std::span<const JobAttributionInput> jobs,
    std::span<const SwitchBandwidthAlert> switch_bandwidth_alerts,
    std::span<const SwitchConcurrencyAlert> switch_concurrency_alerts,
    ThreadPool* pool) const {
  AttributionResult out;

  // Index the cluster-level switch alerts once; every per-job group
  // cluster probes this to see whether a deeper (fabric) explanation
  // exists for its slowdown.
  std::unordered_map<SwitchId, const SwitchBandwidthAlert*> bw_by_switch;
  for (const SwitchBandwidthAlert& a : switch_bandwidth_alerts) {
    bw_by_switch.emplace(a.switch_id, &a);
  }
  std::unordered_map<SwitchId, SwitchAccumulator> switch_acc;

  std::vector<AttributedIncident> job_incidents;

  for (const JobAttributionInput& job : jobs) {
    const DependencyGraph graph(job);
    // Read only through bw_by_switch below, so without bandwidth alerts
    // there is nothing to build.
    std::vector<std::vector<SwitchId>> group_switches;
    if (!bw_by_switch.empty() && job.trace != nullptr &&
        job.comm_types != nullptr) {
      group_switches =
          group_switch_sets(job.trace->view(), job.comm_types->dp_components);
    }

    // --- 1. cluster the cross-group alerts per ring ------------------
    std::vector<const GroupAlert*> group_alerts;
    group_alerts.reserve(job.group_alerts.size());
    for (const GroupAlert& a : job.group_alerts) group_alerts.push_back(&a);
    std::sort(group_alerts.begin(), group_alerts.end(),
              [](const GroupAlert* a, const GroupAlert* b) {
                return std::tuple(a->group_index, a->step_index) <
                       std::tuple(b->group_index, b->step_index);
              });
    std::vector<GroupCluster> clusters;
    for (const GroupAlert* a : group_alerts) {
      if (!clusters.empty() &&
          clusters.back().group_index == a->group_index &&
          a->step_index <=
              clusters.back().step_end + config_.merge_step_gap) {
        clusters.back().step_end = a->step_index;
        clusters.back().alerts.push_back(a);
        continue;
      }
      GroupCluster c;
      c.group_index = a->group_index;
      c.step_begin = a->step_index;
      c.step_end = a->step_index;
      c.alerts.push_back(a);
      clusters.push_back(std::move(c));
    }
    for (GroupCluster& c : clusters) {
      // Deepest explanation wins: a bandwidth-alerted switch on the
      // ring's own DP paths outranks blaming the ring. Pick the most
      // degraded such switch (ties to the lower id).
      double best_depth = -1.0;
      if (c.group_index < group_switches.size()) {
        for (const SwitchId sw : group_switches[c.group_index]) {
          const auto it = bw_by_switch.find(sw);
          if (it == bw_by_switch.end()) continue;
          const SwitchBandwidthAlert& a = *it->second;
          const double depth = (a.mean_gbps - a.bandwidth_gbps) /
                               std::max(a.mean_gbps, kEps);
          if (depth > best_depth) {
            best_depth = depth;
            c.explaining_switch = sw;
          }
        }
      }
    }

    // --- 2. claim step alerts behind each group cluster --------------
    // Synchronous training stalls EVERY rank behind a slow collective:
    // members see the long DP burst in the same step, non-members stall
    // one barrier later, so the claim window extends merge_step_gap past
    // the cluster's last alerted step.
    enum class StepState : std::uint8_t { kUnclaimed, kExplained, kOrphaned };
    std::vector<StepState> step_state(job.step_alerts.size(),
                                      StepState::kUnclaimed);
    for (const GroupCluster& c : clusters) {
      std::vector<GpuId> members;
      if (job.comm_types != nullptr &&
          c.group_index < job.comm_types->dp_components.size()) {
        members = job.comm_types->dp_components[c.group_index];
      }
      std::unordered_set<GpuId> member_set(members.begin(), members.end());
      const std::vector<std::size_t> dist = graph.distances(members);
      const std::size_t claim_end = c.step_end + config_.merge_step_gap;

      const bool via_switch = c.explaining_switch.valid();
      AttributedIncident incident;
      SwitchAccumulator* acc = nullptr;
      if (via_switch) {
        acc = &switch_acc[c.explaining_switch];
        // The ring's own alerts are victims of the fabric: hop 1 from
        // the switch through its flows.
        for (const GroupAlert* a : c.alerts) {
          acc->victims.push_back(Victim{.kind = VictimKind::kGroupAlert,
                                        .job = job.id,
                                        .gpu = GpuId{},
                                        .dp_group_index = a->group_index,
                                        .step_index = a->step_index,
                                        .hops = 1});
        }
        acc->evidence.group_alerts += c.alerts.size();
      } else {
        incident.job = job.id;
        incident.step_begin = c.step_begin;
        incident.step_end = c.step_end;
        // Ring origin: blame depth is how far the worst collective sat
        // above the across-group mean.
        double score = 0.0;
        const GroupAlert* worst = c.alerts.front();
        for (const GroupAlert* a : c.alerts) {
          const double excess =
              a->duration_s / std::max(a->mean_s, kEps) - 1.0;
          if (excess > score) {
            score = excess;
            worst = a;
          }
        }
        incident.culprits.push_back(
            Culprit{.kind = CulpritKind::kDpGroup,
                    .gpu = GpuId{},
                    .dp_group_index = c.group_index,
                    .switch_id = SwitchId{},
                    .score = score});
        incident.confidence =
            clamp01(1.0 - worst->threshold_s / std::max(worst->duration_s,
                                                        kEps));
        incident.evidence.group_alerts = c.alerts.size();
      }

      for (std::size_t i = 0; i < job.step_alerts.size(); ++i) {
        if (step_state[i] != StepState::kUnclaimed) continue;
        const StepAlert& a = job.step_alerts[i];
        if (a.step_index < c.step_begin || a.step_index > claim_end) continue;
        step_state[i] = StepState::kExplained;
        const std::size_t d = graph.hops_of(dist, a.gpu);
        if (via_switch) {
          acc->victims.push_back(Victim{.kind = VictimKind::kStepAlert,
                                        .job = job.id,
                                        .gpu = a.gpu,
                                        .dp_group_index = 0,
                                        .step_index = a.step_index,
                                        .hops = victim_hops(d, 1)});
          acc->evidence.step_alerts += 1;
        } else {
          incident.evidence.step_alerts += 1;
          if (member_set.contains(a.gpu)) continue;  // origin's own alert
          incident.victims.push_back(Victim{.kind = VictimKind::kStepAlert,
                                            .job = job.id,
                                            .gpu = a.gpu,
                                            .dp_group_index = 0,
                                            .step_index = a.step_index,
                                            .hops = victim_hops(d, 0)});
        }
      }
      if (!via_switch) {
        std::sort(incident.victims.begin(), incident.victims.end(),
                  victim_less);
        job_incidents.push_back(std::move(incident));
      }
      out.telemetry.alerts_explained += c.alerts.size();
    }

    // --- 3. trace leftover step-alert ranges to a compute origin ------
    std::vector<std::size_t> flagged_steps;
    for (std::size_t i = 0; i < job.step_alerts.size(); ++i) {
      if (step_state[i] == StepState::kUnclaimed) {
        flagged_steps.push_back(job.step_alerts[i].step_index);
      }
    }
    std::sort(flagged_steps.begin(), flagged_steps.end());
    flagged_steps.erase(
        std::unique(flagged_steps.begin(), flagged_steps.end()),
        flagged_steps.end());

    // Per-rank self-time series, computed once per job and only when a
    // flagged step is left to trace; each rank fills its own slot.
    std::vector<std::vector<double>> self_times;
    if (!flagged_steps.empty()) {
      self_times.resize(job.timelines.size());
      parallel_for(pool, self_times.size(), [&](std::size_t t) {
        self_times[t] = step_self_times(job.timelines[t]);
      });
    }

    std::size_t r = 0;
    while (r < flagged_steps.size()) {
      std::size_t r_end = r;
      while (r_end + 1 < flagged_steps.size() &&
             flagged_steps[r_end + 1] <=
                 flagged_steps[r_end] + config_.merge_step_gap) {
        ++r_end;
      }
      const std::size_t step_begin = flagged_steps[r];
      const std::size_t step_end = flagged_steps[r_end];
      r = r_end + 1;

      // Score every rank: mean self time across the flagged steps vs the
      // rank's own median over the rest of the window. The victim of a
      // straggler idles before its pp_recv — its recv->send stretch stays
      // flat — so only the true origin (and its flow-invisible TP
      // siblings) shows a self-time excess.
      struct Candidate {
        GpuId gpu;
        double excess = 0.0;
      };
      std::vector<Candidate> candidates;
      candidates.reserve(job.timelines.size());
      for (std::size_t t = 0; t < job.timelines.size(); ++t) {
        const std::vector<double>& series = self_times[t];
        double flagged_sum = 0.0;
        std::size_t flagged_n = 0;
        std::vector<double> rest;
        rest.reserve(series.size());
        for (std::size_t k = 0; k < series.size(); ++k) {
          if (k >= step_begin && k <= step_end) {
            flagged_sum += series[k];
            ++flagged_n;
          } else {
            rest.push_back(series[k]);
          }
        }
        double excess = 0.0;
        if (flagged_n > 0 && !rest.empty()) {
          const double baseline = median(std::move(rest));
          const double flagged_mean =
              flagged_sum / static_cast<double>(flagged_n);
          excess = (flagged_mean - baseline) /
                   std::max(baseline, kMinBaselineSeconds);
        }
        candidates.push_back(
            Candidate{job.timelines[t].gpu, std::max(excess, 0.0)});
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  if (a.excess != b.excess) return a.excess > b.excess;
                  return a.gpu < b.gpu;
                });

      const double top =
          candidates.empty() ? 0.0 : candidates.front().excess;
      if (top < config_.min_compute_excess) {
        // No rank stands out: never guess. The alerts stay visible in
        // the report; they are just not pinned on anyone.
        for (std::size_t i = 0; i < job.step_alerts.size(); ++i) {
          const StepAlert& a = job.step_alerts[i];
          if (step_state[i] == StepState::kUnclaimed &&
              a.step_index >= step_begin && a.step_index <= step_end) {
            step_state[i] = StepState::kOrphaned;
            out.telemetry.alerts_orphaned += 1;
          }
        }
        continue;
      }

      const double join =
          std::max(config_.min_compute_excess,
                   config_.origin_cluster_ratio * top);
      std::vector<GpuId> origin_gpus;
      AttributedIncident incident;
      incident.job = job.id;
      incident.step_begin = step_begin;
      incident.step_end = step_end;
      double best_outside = 0.0;
      for (const Candidate& c : candidates) {
        if (c.excess >= join &&
            incident.culprits.size() < config_.max_culprits) {
          incident.culprits.push_back(Culprit{.kind = CulpritKind::kRank,
                                              .gpu = c.gpu,
                                              .dp_group_index = 0,
                                              .switch_id = SwitchId{},
                                              .score = c.excess});
          origin_gpus.push_back(c.gpu);
        } else {
          best_outside = std::max(best_outside, c.excess);
        }
      }
      incident.confidence = clamp01(1.0 - best_outside / top);

      const std::vector<std::size_t> dist = graph.distances(origin_gpus);
      const std::unordered_set<GpuId> origin_set(origin_gpus.begin(),
                                                 origin_gpus.end());
      for (std::size_t i = 0; i < job.step_alerts.size(); ++i) {
        if (step_state[i] != StepState::kUnclaimed) continue;
        const StepAlert& a = job.step_alerts[i];
        if (a.step_index < step_begin || a.step_index > step_end) continue;
        step_state[i] = StepState::kExplained;
        incident.evidence.step_alerts += 1;
        if (origin_set.contains(a.gpu)) continue;  // origin's own alert
        incident.victims.push_back(
            Victim{.kind = VictimKind::kStepAlert,
                   .job = job.id,
                   .gpu = a.gpu,
                   .dp_group_index = 0,
                   .step_index = a.step_index,
                   .hops = victim_hops(graph.hops_of(dist, a.gpu), 0)});
      }
      std::sort(incident.victims.begin(), incident.victims.end(),
                victim_less);
      job_incidents.push_back(std::move(incident));
    }

    for (const StepState s : step_state) {
      if (s == StepState::kExplained) out.telemetry.alerts_explained += 1;
    }
  }

  // --- 4. cluster-level switch incidents ------------------------------
  // Every bandwidth-alerted switch becomes one incident carrying all the
  // group/step victims the per-job pass attached to it; concurrency
  // alerts on the same switch fold in as extra evidence. Concurrency-only
  // switches get their own incident.
  std::vector<AttributedIncident> switch_incidents;
  std::unordered_set<SwitchId> bw_alerted;
  for (const SwitchBandwidthAlert& a : switch_bandwidth_alerts) {
    bw_alerted.insert(a.switch_id);
    AttributedIncident incident;
    const double depth =
        (a.mean_gbps - a.bandwidth_gbps) / std::max(a.mean_gbps, kEps);
    incident.culprits.push_back(Culprit{.kind = CulpritKind::kSwitch,
                                        .gpu = GpuId{},
                                        .dp_group_index = 0,
                                        .switch_id = a.switch_id,
                                        .score = depth});
    incident.confidence = clamp01(
        (a.threshold_gbps - a.bandwidth_gbps) /
        std::max(a.threshold_gbps, kEps));
    incident.evidence.switch_bandwidth_alerts = 1;
    out.telemetry.alerts_explained += 1;
    for (const SwitchConcurrencyAlert& c : switch_concurrency_alerts) {
      if (c.switch_id != a.switch_id) continue;
      incident.evidence.switch_concurrency_alerts += 1;
      out.telemetry.alerts_explained += 1;
    }
    if (const auto it = switch_acc.find(a.switch_id);
        it != switch_acc.end()) {
      incident.victims = std::move(it->second.victims);
      incident.evidence.step_alerts = it->second.evidence.step_alerts;
      incident.evidence.group_alerts = it->second.evidence.group_alerts;
      std::sort(incident.victims.begin(), incident.victims.end(),
                victim_less);
    }
    switch_incidents.push_back(std::move(incident));
  }
  std::vector<SwitchId> concurrency_only;
  for (const SwitchConcurrencyAlert& c : switch_concurrency_alerts) {
    if (!bw_alerted.contains(c.switch_id)) {
      concurrency_only.push_back(c.switch_id);
    }
  }
  std::sort(concurrency_only.begin(), concurrency_only.end());
  concurrency_only.erase(
      std::unique(concurrency_only.begin(), concurrency_only.end()),
      concurrency_only.end());
  for (const SwitchId sw : concurrency_only) {
    AttributedIncident incident;
    double score = 0.0;
    double confidence = 0.0;
    std::uint64_t n = 0;
    for (const SwitchConcurrencyAlert& c : switch_concurrency_alerts) {
      if (c.switch_id != sw) continue;
      ++n;
      const double over = static_cast<double>(c.concurrent_flows) /
                              std::max<double>(static_cast<double>(c.limit),
                                               1.0) -
                          1.0;
      score = std::max(score, over);
      confidence = std::max(confidence, clamp01(over));
      out.telemetry.alerts_explained += 1;
    }
    incident.culprits.push_back(Culprit{.kind = CulpritKind::kSwitch,
                                        .gpu = GpuId{},
                                        .dp_group_index = 0,
                                        .switch_id = sw,
                                        .score = score});
    incident.confidence = confidence;
    incident.evidence.switch_concurrency_alerts = n;
    switch_incidents.push_back(std::move(incident));
  }
  std::sort(switch_incidents.begin(), switch_incidents.end(),
            [](const AttributedIncident& a, const AttributedIncident& b) {
              return a.culprits.front().switch_id <
                     b.culprits.front().switch_id;
            });

  std::sort(job_incidents.begin(), job_incidents.end(), incident_less);
  out.incidents = std::move(job_incidents);
  out.incidents.insert(out.incidents.end(),
                       std::make_move_iterator(switch_incidents.begin()),
                       std::make_move_iterator(switch_incidents.end()));
  return out;
}

}  // namespace llmprism
