#include "llmprism/simulator/job_sim.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "llmprism/simulator/pipeline_schedule.hpp"

namespace llmprism {

namespace {

/// Transmission time of `bytes` at `gbps` (Gbit/s == bit/ns).
DurationNs wire_time(std::uint64_t bytes, double gbps) {
  return static_cast<DurationNs>(static_cast<double>(bytes) * 8.0 / gbps);
}

/// Deterministic uneven gradient-bucket sizes summing to `total`.
/// Buckets model by-layer gradient grouping, whose parameter counts are
/// never equal — this unevenness is what gives DP pairs several distinct
/// flow sizes per step (Alg. 2's DP signature).
std::vector<std::uint64_t> bucket_sizes(std::uint64_t total,
                                        std::uint32_t buckets) {
  std::vector<std::uint64_t> sizes(buckets);
  std::uint64_t weight_sum = 0;
  for (std::uint32_t k = 0; k < buckets; ++k) weight_sum += k + 2;
  std::uint64_t assigned = 0;
  for (std::uint32_t k = 0; k < buckets; ++k) {
    sizes[k] = total * (k + 2) / weight_sum;
    assigned += sizes[k];
  }
  sizes.back() += total - assigned;  // absorb rounding remainder
  return sizes;
}

}  // namespace

void JobSimConfig::validate() const {
  parallelism.validate();
  if (num_steps == 0) {
    throw std::invalid_argument("job sim: num_steps must be > 0");
  }
  if (link_bandwidth_gbps <= 0.0) {
    throw std::invalid_argument("job sim: link bandwidth must be positive");
  }
  if (fwd_micro_batch <= 0 || bwd_micro_batch <= 0) {
    throw std::invalid_argument("job sim: compute times must be positive");
  }
  if (dp_buckets == 0 || dp_channels == 0 || dp_rounds_per_bucket == 0) {
    throw std::invalid_argument(
        "job sim: dp_buckets/dp_channels/dp_rounds_per_bucket must be > 0");
  }
  if (pp_message_bytes == 0 || dp_total_bytes == 0) {
    throw std::invalid_argument("job sim: message sizes must be > 0");
  }
  for (const StragglerSpec& s : stragglers) {
    if (s.rank >= parallelism.world_size()) {
      throw std::invalid_argument("job sim: straggler rank out of range");
    }
    if (s.slowdown < 1.0) {
      throw std::invalid_argument("job sim: straggler slowdown must be >= 1");
    }
  }
  for (const SlowDpGroupSpec& g : slow_dp_groups) {
    if (g.tp_idx >= parallelism.tp || g.pp_idx >= parallelism.pp) {
      throw std::invalid_argument("job sim: slow DP group index out of range");
    }
    if (g.slowdown < 1.0) {
      throw std::invalid_argument("job sim: group slowdown must be >= 1");
    }
  }
}

TrainingJobSim::TrainingJobSim(JobId id, JobSimConfig config,
                               std::vector<MachineId> machines,
                               const ClusterTopology& topology)
    : id_(id),
      config_(std::move(config)),
      topology_(topology),
      rank_map_(config_.parallelism),
      placement_(rank_map_, std::move(machines), topology) {
  config_.validate();
}

JobSimResult TrainingJobSim::run(Rng& rng) const {
  const ParallelismConfig& par = config_.parallelism;
  const std::uint32_t P = par.pp;
  const std::uint32_t M = par.micro_batches;
  const double bw = config_.link_bandwidth_gbps;

  JobSimResult result;
  result.truth.id = id_;
  result.truth.gpus = placement_.all_gpus();

  // --- flow emission (cross-machine only; intra-machine is invisible) ---
  auto emit = [&](RankId src_rank, RankId dst_rank, TimeNs start,
                  std::uint64_t bytes, DurationNs duration) {
    const GpuId src = placement_.gpu_of(src_rank);
    const GpuId dst = placement_.gpu_of(dst_rank);
    if (topology_.same_machine(src, dst)) return;
    FlowRecord f;
    f.start_time = start;
    f.src = src;
    f.dst = dst;
    f.bytes = bytes;
    f.duration = duration;
    f.switches = topology_.route(src, dst);
    result.trace.add(f);
  };

  auto record_pair_type = [&](RankId a, RankId b, CommType type) {
    const GpuId ga = placement_.gpu_of(a);
    const GpuId gb = placement_.gpu_of(b);
    if (topology_.same_machine(ga, gb)) return;
    result.truth.pair_types.emplace(GpuPair(ga, gb), type);
  };

  // --- ground-truth pair types ---
  for (const auto& pp_group : rank_map_.all_pp_groups()) {
    for (std::size_t s = 0; s + 1 < pp_group.size(); ++s) {
      record_pair_type(pp_group[s], pp_group[s + 1], CommType::kPP);
    }
  }
  const auto dp_groups = rank_map_.all_dp_groups();
  result.truth.dp_group_edges.resize(dp_groups.size());
  result.truth.dp_group_of_rank.resize(rank_map_.world_size());
  for (std::size_t g = 0; g < dp_groups.size(); ++g) {
    for (const RankId r : dp_groups[g]) {
      result.truth.dp_group_of_rank[r.value()] = g;
    }
  }
  // Directed ring edges per (group, channel), reused every step.
  std::vector<std::vector<std::pair<RankId, RankId>>> group_channel_edges(
      dp_groups.size() * config_.dp_channels);
  for (std::size_t g = 0; g < dp_groups.size(); ++g) {
    std::unordered_set<GpuPair> seen;
    for (std::uint32_t c = 0; c < config_.dp_channels; ++c) {
      auto edges = ring_edges(dp_groups[g], c);
      for (const auto& [a, b] : edges) {
        record_pair_type(a, b, CommType::kDP);
        const GpuId ga = placement_.gpu_of(a);
        const GpuId gb = placement_.gpu_of(b);
        if (!topology_.same_machine(ga, gb) &&
            seen.insert(GpuPair(ga, gb)).second) {
          result.truth.dp_group_edges[g].push_back(GpuPair(ga, gb));
        }
      }
      group_channel_edges[g * config_.dp_channels + c] = std::move(edges);
    }
  }

  // --- DP volumes ---
  const auto buckets = bucket_sizes(config_.dp_total_bytes, config_.dp_buckets);
  const std::uint32_t dp = par.dp;
  // Bytes one rank pushes to its ring successor for one bucket on one
  // channel: ring all-reduce moves 2*(dp-1)/dp of the data, split evenly
  // over channels.
  std::vector<std::uint64_t> bucket_flow_bytes(buckets.size(), 0);
  if (dp > 1) {
    for (std::size_t k = 0; k < buckets.size(); ++k) {
      bucket_flow_bytes[k] = buckets[k] * 2 * (dp - 1) / dp /
                             config_.dp_channels;
    }
  }

  const DurationNs pp_flow_duration = wire_time(config_.pp_message_bytes, bw);
  const DurationNs transfer = pp_flow_duration + config_.net_latency;

  result.truth.dp_group_spans.assign(
      dp_groups.size(), std::vector<DpGroupStepTruth>(config_.num_steps));
  result.truth.steps.resize(config_.num_steps);

  auto group_index = [&](std::uint32_t tp_idx, std::uint32_t pp_idx) {
    // Matches RankMap::all_dp_groups() order (pp outer, tp inner).
    return static_cast<std::size_t>(pp_idx) * par.tp + tp_idx;
  };

  TimeNs step_begin = config_.start_time;
  for (std::uint32_t step = 0; step < config_.num_steps; ++step) {
    // ---- pipeline compute + PP flows, one schedule per DP replica ----
    std::vector<PipelineSchedule> schedules(dp);
    for (std::uint32_t d = 0; d < dp; ++d) {
      PipelineScheduleInput in;
      in.num_stages = P;
      in.num_micro_batches = M;
      in.transfer_time = transfer;
      in.start_time = step_begin;
      in.fwd_time.assign(P, std::vector<DurationNs>(M));
      in.bwd_time.assign(P, std::vector<DurationNs>(M));
      for (std::uint32_t s = 0; s < P; ++s) {
        double slow = 1.0;
        for (const StragglerSpec& sp : config_.stragglers) {
          const RankCoord c = rank_map_.coord_of(RankId(sp.rank));
          if (c.dp_idx == d && c.pp_idx == s && step >= sp.step_begin &&
              step <= sp.step_end) {
            slow *= sp.slowdown;
          }
        }
        for (std::uint32_t m = 0; m < M; ++m) {
          const double jf =
              rng.lognormal(0.0, config_.compute_jitter_sigma) * slow;
          const double jb =
              rng.lognormal(0.0, config_.compute_jitter_sigma) * slow;
          in.fwd_time[s][m] = static_cast<DurationNs>(
              static_cast<double>(config_.fwd_micro_batch) * jf);
          in.bwd_time[s][m] = static_cast<DurationNs>(
              static_cast<double>(config_.bwd_micro_batch) * jb);
        }
      }
      schedules[d] = compute_1f1b_schedule(in);

      // PP flows for every tp lane of this replica.
      for (std::uint32_t s = 0; s < P; ++s) {
        for (const PipeOp& op : schedules[d].ops[s]) {
          const bool fwd = op.kind == PipeOpKind::kForward;
          if (fwd && s + 1 >= P) continue;   // last stage sends nothing fwd
          if (!fwd && s == 0) continue;      // first stage sends nothing bwd
          const std::uint32_t peer_stage = fwd ? s + 1 : s - 1;
          for (std::uint32_t t = 0; t < par.tp; ++t) {
            const RankId src = rank_map_.rank_of({t, d, s});
            const RankId dst = rank_map_.rank_of({t, d, peer_stage});
            const TimeNs start =
                op.end + static_cast<TimeNs>(rng.uniform(0.0, 50.0 * 1e3));
            emit(src, dst, start, config_.pp_message_bytes, pp_flow_duration);
          }
        }
      }
    }

    // ---- DP collectives per group ----
    TimeNs step_dp_end_global = step_begin;
    TimeNs step_physical_end_global = step_begin;
    for (std::uint32_t p = 0; p < P; ++p) {
      for (std::uint32_t t = 0; t < par.tp; ++t) {
        const std::size_t g = group_index(t, p);
        TimeNs bwd_done = step_begin;
        TimeNs bwd_first = schedules[0].makespan_end();
        for (std::uint32_t d = 0; d < dp; ++d) {
          bwd_done = std::max(bwd_done, schedules[d].backward_done(p));
          for (const PipeOp& op : schedules[d].ops[p]) {
            if (op.kind == PipeOpKind::kBackward) {
              bwd_first = std::min(bwd_first, op.start);
              break;
            }
          }
        }

        double group_slow = 1.0;
        for (const SlowDpGroupSpec& sg : config_.slow_dp_groups) {
          if (sg.tp_idx == t && sg.pp_idx == p && step >= sg.step_begin &&
              step <= sg.step_end) {
            group_slow *= sg.slowdown;
          }
        }

        TimeNs dp_begin = 0;
        TimeNs dp_end = step_begin;        // last *observable* DP flow end
        TimeNs dp_physical_end = bwd_done; // collective completion (timing)
        if (dp > 1) {
          // Per-bucket wall time: wire time with ring inefficiency.
          std::vector<DurationNs> wall(buckets.size());
          for (std::size_t k = 0; k < buckets.size(); ++k) {
            const double ineff = rng.uniform(1.10, 1.35) * group_slow;
            wall[k] = static_cast<DurationNs>(
                static_cast<double>(wire_time(bucket_flow_bytes[k], bw)) *
                ineff);
          }
          // Bucket launch times: sequential after backward, or partially
          // overlapped with backward compute (ZeRO-style).
          std::vector<TimeNs> launch(buckets.size());
          if (!config_.zero_overlap) {
            TimeNs t_cursor = bwd_done + config_.net_latency;
            for (std::size_t k = 0; k < buckets.size(); ++k) {
              launch[k] = t_cursor;
              t_cursor += wall[k] + config_.inter_collective_gap;
            }
          } else {
            // ZeRO/DDP-style overlap with gradient accumulation: buckets
            // can only fire once the LAST micro-batch's backward produces
            // their gradients, so they spread over that final backward
            // window; the last bucket still trails backward completion.
            const TimeNs window_begin =
                std::max(bwd_first, bwd_done - config_.bwd_micro_batch);
            for (std::size_t k = 0; k + 1 < buckets.size(); ++k) {
              const double frac = static_cast<double>(k + 1) /
                                  static_cast<double>(buckets.size());
              launch[k] = window_begin + static_cast<TimeNs>(
                                             frac * static_cast<double>(
                                                        bwd_done -
                                                        window_begin));
            }
            launch[buckets.size() - 1] = bwd_done + config_.net_latency;
          }

          // Each bucket's ring pipelines its chunks; the collector sees R
          // staggered equal-size flows per bucket (R = dp_rounds_per_bucket).
          const std::uint32_t R = config_.dp_rounds_per_bucket;
          // When overlapped with compute, rounds contend with backward
          // kernels and get paced across the slack to the next bucket
          // (the trailing bucket inherits its predecessor's pacing);
          // back-to-back otherwise.
          std::vector<DurationNs> spacing(buckets.size());
          for (std::size_t k = 0; k < buckets.size(); ++k) {
            spacing[k] = wall[k] / R;
            if (config_.zero_overlap) {
              if (k + 1 < buckets.size()) {
                spacing[k] = std::max(
                    spacing[k],
                    (launch[k + 1] - launch[k]) / static_cast<DurationNs>(R));
              } else if (k > 0) {
                spacing[k] = std::max(spacing[k], spacing[k - 1]);
              }
            }
          }
          for (std::size_t k = 0; k < buckets.size(); ++k) {
            const std::uint64_t round_bytes =
                std::max<std::uint64_t>(1, bucket_flow_bytes[k] / R);
            const DurationNs round_wall = wall[k] / R;
            const DurationNs round_spacing = spacing[k];
            for (std::uint32_t r = 0; r < R; ++r) {
              const TimeNs round_launch =
                  launch[k] + static_cast<TimeNs>(r) * round_spacing;
              for (std::uint32_t c = 0; c < config_.dp_channels; ++c) {
                const auto& edges =
                    group_channel_edges[g * config_.dp_channels + c];
                for (const auto& [a, b] : edges) {
                  const TimeNs start =
                      round_launch +
                      static_cast<TimeNs>(rng.uniform(0.0, 100e3));
                  const auto duration = static_cast<DurationNs>(
                      static_cast<double>(round_wall) *
                      rng.uniform(0.97, 1.03));
                  emit(a, b, start, round_bytes, duration);
                  dp_end = std::max(dp_end, start + duration);
                }
              }
            }
            dp_physical_end =
                std::max(dp_physical_end, launch[k] + wall[k]);
          }
          dp_begin = launch.front();
          // Groups whose ring never crosses a machine emit no flows; their
          // observable span falls back to the physical one.
          if (dp_end <= step_begin) dp_end = dp_physical_end;
          dp_physical_end = std::max(dp_physical_end, dp_end);
        } else {
          dp_begin = bwd_done;
          dp_end = bwd_done;
        }

        result.truth.dp_group_spans[g][step] = {dp_begin, dp_end};
        step_dp_end_global = std::max(step_dp_end_global, dp_end);
        step_physical_end_global =
            std::max(step_physical_end_global, dp_physical_end);
      }
    }

    const TimeNs step_end = step_physical_end_global + config_.optimizer_time;
    result.truth.steps[step] = {step_begin, step_end, step_dp_end_global};
    step_begin = step_end;
  }

  result.trace.sort();
  return result;
}

}  // namespace llmprism
