#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "llmprism/common/rng.hpp"
#include "llmprism/flow/lft.hpp"
#include "llmprism/parallelism/config.hpp"
#include "llmprism/simulator/cluster_sim.hpp"
#include "llmprism/simulator/faults.hpp"

namespace prismbench {

namespace {

// Daemon feed geometry: 0.5 s chunks, 2 s analysis windows.
constexpr DurationNs kChunk = 500 * kMillisecond;
constexpr DurationNs kWindow = 2 * kSecond;
constexpr DurationNs kReorderSlack = 100 * kMillisecond;

/// Encode chunks[slot][stream] as LFT images plus the per-chunk facts the
/// window schedule needs.
void encode_chunks(const std::vector<std::vector<FlowTrace>>& chunks,
                   StreamInput& in) {
  for (const std::vector<FlowTrace>& slot : chunks) {
    in.images.emplace_back();
    in.flows.emplace_back();
    in.first_start.emplace_back();
    in.max_start.emplace_back();
    for (const FlowTrace& trace : slot) {
      std::ostringstream os(std::ios::binary);
      write_lft(os, trace);
      in.images.back().push_back(std::move(os).str());
      in.flows.back().push_back(trace.size());
      in.first_start.back().push_back(trace.empty() ? 0 : trace[0].start_time);
      TimeNs latest = 0;
      for (const FlowRecord& f : trace) latest = std::max(latest, f.start_time);
      in.max_start.back().push_back(latest);
      in.total_flows += trace.size();
    }
  }
}

JobFacts facts_of(const JobTruth& truth, std::size_t stream = 0) {
  JobFacts f;
  f.gpus = truth.gpus;
  std::sort(f.gpus.begin(), f.gpus.end());
  if (!truth.steps.empty()) {
    f.active = {truth.steps.front().begin, truth.steps.back().end};
  }
  f.stream = stream;
  return f;
}

TimeWindow step_span(const JobTruth& truth, std::uint32_t begin,
                     std::uint32_t end) {
  if (truth.steps.empty()) return {};
  const std::size_t last = truth.steps.size() - 1;
  return {truth.steps[std::min<std::size_t>(begin, last)].begin,
          truth.steps[std::min<std::size_t>(end, last)].end};
}

FaultTruth straggler_truth(const JobTruth& truth, std::size_t job,
                           const ParallelismConfig& par,
                           const StragglerSpec& spec) {
  FaultTruth f;
  f.kind = FaultKind::kStraggler;
  f.job = job;
  const RankMap map(par);
  const RankCoord coord = map.coord_of(RankId(spec.rank));
  for (const RankId r : map.tp_group(coord.dp_idx, coord.pp_idx)) {
    f.culprit_gpus.push_back(truth.gpus[r.value()]);
  }
  std::sort(f.culprit_gpus.begin(), f.culprit_gpus.end());
  f.step_begin = spec.step_begin;
  f.step_end = spec.step_end;
  f.time = step_span(truth, spec.step_begin, spec.step_end);
  return f;
}

FaultTruth ring_truth(const JobTruth& truth, std::size_t job,
                      const ParallelismConfig& par,
                      const SlowDpGroupSpec& spec) {
  FaultTruth f;
  f.kind = FaultKind::kSlowRing;
  f.job = job;
  const RankMap map(par);
  for (const RankId r : map.dp_group(spec.tp_idx, spec.pp_idx)) {
    f.ring.push_back(truth.gpus[r.value()]);
  }
  std::sort(f.ring.begin(), f.ring.end());
  f.step_begin = spec.step_begin;
  f.step_end = spec.step_end;
  f.time = step_span(truth, spec.step_begin, spec.step_end);
  return f;
}

// ---- fleet-2880: the paper's Fig. 3 cluster -------------------------------

JobSimConfig fig3_tenant(std::uint32_t tp, std::uint32_t dp, std::uint32_t pp,
                         bool zero_overlap = false) {
  JobSimConfig job;
  job.parallelism = {.tp = tp, .dp = dp, .pp = pp, .micro_batches = 4};
  job.zero_overlap = zero_overlap;
  job.num_steps = 12;
  return job;
}

BatchInput make_fleet(std::uint64_t seed, const std::string& dir) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 360, .gpus_per_machine = 8,
                  .machines_per_leaf = 18, .num_spines = 8};
  cfg.seed = seed;
  // 19 tenants on 2,080 of the 2,880 GPUs, the size mix of Fig. 3.
  for (const JobSimConfig& job :
       {fig3_tenant(8, 16, 4), fig3_tenant(8, 8, 4),
        fig3_tenant(8, 16, 2, true), fig3_tenant(8, 8, 2),
        fig3_tenant(8, 4, 4), fig3_tenant(4, 16, 2),
        fig3_tenant(8, 16, 1, true), fig3_tenant(8, 4, 2),
        fig3_tenant(8, 2, 4), fig3_tenant(4, 8, 2),
        fig3_tenant(8, 8, 1, true), fig3_tenant(2, 16, 2),
        fig3_tenant(8, 2, 2), fig3_tenant(8, 4, 1), fig3_tenant(4, 4, 2),
        fig3_tenant(8, 2, 2, true), fig3_tenant(4, 8, 1),
        fig3_tenant(8, 1, 4), fig3_tenant(2, 8, 2)}) {
    cfg.jobs.push_back({job, {}});
  }
  const ClusterSimResult sim = run_cluster_sim(cfg);

  BatchInput in;
  in.name = "fleet-2880";
  in.topology = cfg.topology;
  in.lft_path = dir + "/fleet-2880.lft";
  in.flows = sim.trace.size();
  for (const JobTruth& job : sim.jobs) in.truth.jobs.push_back(facts_of(job));
  write_lft_file(in.lft_path, sim.trace);
  return in;
}

// ---- bigjob-faults: one noisy 1,024-GPU job with three faults -------------

BatchInput make_bigjob(std::uint64_t seed, const std::string& dir) {
  constexpr std::uint32_t kSteps = 10;
  ClusterSimConfig cfg;
  // 16 machines per leaf: each DP ring (one pp stage) sits under one leaf.
  cfg.topology = {.num_machines = 128, .gpus_per_machine = 8,
                  .machines_per_leaf = 16, .num_spines = 4};
  cfg.seed = seed;

  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 16, .pp = 8, .micro_batches = 8};
  job.fwd_micro_batch = 90 * kMillisecond;
  job.bwd_micro_batch = 180 * kMillisecond;
  job.optimizer_time = 30 * kMillisecond;
  job.dp_total_bytes = 2ull << 30;
  job.dp_rounds_per_bucket = 8;
  job.dp_channels = 1;
  job.num_steps = kSteps;

  // table1-style collection noise: burst truncation on a fifth of the
  // pairs plus drops, duplicates and time jitter.
  cfg.noise.degraded_pair_fraction = 0.28;
  cfg.noise.truncation_prob_min = 0.25;
  cfg.noise.truncation_prob_max = 0.47;
  cfg.noise.drop_rate = 0.01;
  cfg.noise.duplicate_rate = 0.005;
  cfg.noise.time_jitter = 50 * kMicrosecond;

  Rng rng(seed ^ 0x6a09e667f3bcc908ULL);
  StragglerSpec straggler;
  straggler.rank = static_cast<std::uint32_t>(rng.uniform_int(0, 1023));
  straggler.step_begin = static_cast<std::uint32_t>(rng.uniform_int(2, 4));
  straggler.step_end = straggler.step_begin;
  straggler.slowdown = rng.uniform(2.0, 3.0);
  job.stragglers.push_back(straggler);

  SlowDpGroupSpec ring;
  ring.tp_idx = static_cast<std::uint32_t>(rng.uniform_int(0, 7));
  ring.pp_idx = static_cast<std::uint32_t>(rng.uniform_int(0, 7));
  ring.step_begin = static_cast<std::uint32_t>(rng.uniform_int(5, 7));
  ring.step_end = ring.step_begin + 1;
  ring.slowdown = rng.uniform(2.0, 3.5);
  job.slow_dp_groups.push_back(ring);
  cfg.jobs.push_back({job, {}});

  // A leaf other than the slow ring's degrades for the whole window.
  std::uint32_t leaf = static_cast<std::uint32_t>(rng.uniform_int(0, 6));
  if (leaf >= ring.pp_idx) ++leaf;
  const double factor = rng.uniform(0.25, 0.35);

  ClusterSimResult sim = run_cluster_sim(cfg);
  const JobTruth& truth = sim.jobs.front();
  const TimeWindow degraded = step_span(truth, 0, kSteps - 1);
  const FlowTrace trace = apply_switch_degradation(
      sim.trace, {{.switch_id = SwitchId(leaf), .window = degraded,
                   .bandwidth_factor = factor}});

  BatchInput in;
  in.name = "bigjob-faults";
  in.topology = cfg.topology;
  in.lft_path = dir + "/bigjob-faults.lft";
  in.flows = trace.size();
  in.exports = true;
  in.truth.jobs.push_back(facts_of(truth));
  in.truth.faults.push_back(
      straggler_truth(truth, 0, job.parallelism, straggler));
  in.truth.faults.push_back(ring_truth(truth, 0, job.parallelism, ring));
  FaultTruth sw;
  sw.kind = FaultKind::kDegradedSwitch;
  sw.switch_id = SwitchId(leaf);
  sw.step_begin = 0;
  sw.step_end = kSteps - 1;
  sw.time = degraded;
  in.truth.faults.push_back(sw);
  write_lft_file(in.lft_path, trace);
  return in;
}

// ---- stream-churn: two half-cluster streams with tenant churn -------------

/// A light tenant: ~0.5 s steps and few flows per step, so a 2 s window
/// holds several steps of a 512-GPU cluster in a few thousand flows.
JobSimConfig stream_tenant(std::uint32_t dp, std::uint32_t pp) {
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = dp, .pp = pp, .micro_batches = 4};
  job.fwd_micro_batch = 30 * kMillisecond;
  job.bwd_micro_batch = 60 * kMillisecond;
  job.optimizer_time = 20 * kMillisecond;
  job.pp_message_bytes = 16ull << 20;
  job.dp_total_bytes = 512ull << 20;
  job.dp_buckets = 2;
  job.dp_rounds_per_bucket = 2;
  job.dp_channels = 1;
  return job;
}

double step_estimate_s(const JobSimConfig& job) {
  const auto& p = job.parallelism;
  const double compute = to_seconds(job.fwd_micro_batch + job.bwd_micro_batch);
  return (p.micro_batches + p.pp - 1) * compute +
         to_seconds(job.optimizer_time) + 0.08;
}

}  // namespace

BatchInput make_batch(const std::string& name, std::uint64_t seed,
                      const std::string& dir) {
  if (name == "fleet-2880") return make_fleet(seed, dir);
  if (name == "bigjob-faults") return make_bigjob(seed, dir);
  throw std::invalid_argument("unknown batch workload " + name);
}

StreamInput make_stream(std::uint64_t seed, double feed_seconds) {
  StreamInput in;
  in.topology = {.num_machines = 64, .gpus_per_machine = 8,
                 .machines_per_leaf = 8, .num_spines = 4};
  in.streams = 2;
  in.chunk = kChunk;
  in.window = kWindow;
  in.reorder_slack = kReorderSlack;
  in.compression = 10.0;
  const double feed_sim = feed_seconds * in.compression;

  // Six tenants per half (32 machines each); within a half, two run
  // throughout, two leave part-way and two arrive part-way, with seeded
  // jitter on every start and end.
  struct Slot {
    std::uint32_t first_machine, machines, dp, pp;
    double start, end;  ///< fractions of the feed
  };
  const Slot slots[] = {
      {0, 8, 4, 2, 0.00, 1.10},  {8, 8, 2, 4, 0.05, 1.10},
      {16, 4, 2, 2, 0.00, 0.50}, {20, 4, 4, 1, 0.30, 1.10},
      {24, 4, 2, 2, 0.00, 0.75}, {28, 4, 4, 1, 0.60, 1.10},
  };
  Rng rng(seed ^ 0x5eed5eedULL);
  ClusterSimConfig cfg;
  cfg.topology = in.topology;
  cfg.seed = seed;
  cfg.noise.drop_rate = 0.002;
  cfg.noise.duplicate_rate = 0.001;
  cfg.noise.time_jitter = 20 * kMicrosecond;
  std::vector<std::size_t> job_stream;
  StragglerSpec straggler;
  for (std::uint32_t half = 0; half < 2; ++half) {
    for (const Slot& s : slots) {
      JobSimConfig job = stream_tenant(s.dp, s.pp);
      // The first tenant of each half starts at 0 and opens its stream, so
      // the two streams' windows close in the same slot on every seed (a
      // seed-dependent phase would move the verdict latency between runs).
      const double jitter = rng.uniform(0.0, 2.0);
      const double start =
          &s == slots ? 0.0 : std::max(0.0, s.start * feed_sim + jitter);
      const double end = s.end * feed_sim + rng.uniform(-2.0, 2.0);
      job.start_time = from_seconds(start);
      job.num_steps = static_cast<std::uint32_t>(
          std::max(4.0, std::ceil((end - start) / step_estimate_s(job))));
      if (half == 0 && cfg.jobs.empty()) {
        // One single-step straggler mid-feed on the first tenant.
        straggler.rank = static_cast<std::uint32_t>(
            rng.uniform_int(0, job.parallelism.world_size() - 1));
        straggler.step_begin = static_cast<std::uint32_t>(
            (0.5 * feed_sim - start) / step_estimate_s(job));
        straggler.step_end = straggler.step_begin;
        straggler.slowdown = rng.uniform(2.2, 3.0);
        job.stragglers.push_back(straggler);
      }
      std::vector<MachineId> machines;
      for (std::uint32_t m = 0; m < s.machines; ++m) {
        machines.push_back(MachineId(half * 32 + s.first_machine + m));
      }
      cfg.jobs.push_back({job, machines});
      job_stream.push_back(half);
    }
  }
  const ClusterSimResult sim = run_cluster_sim(cfg);
  for (std::size_t j = 0; j < sim.jobs.size(); ++j) {
    in.truth.jobs.push_back(facts_of(sim.jobs[j], job_stream[j]));
  }
  in.truth.faults.push_back(straggler_truth(
      sim.jobs.front(), 0, cfg.jobs.front().config.parallelism, straggler));

  // Cut the sorted trace into fixed-duration chunks per stream; a flow
  // belongs to the stream of its source machine's half.
  const auto slots_total =
      static_cast<std::size_t>(std::llround(feed_sim / to_seconds(in.chunk)));
  std::vector<std::vector<FlowTrace>> chunks(
      slots_total, std::vector<FlowTrace>(in.streams));
  const std::uint32_t gpus_per_half = 32 * in.topology.gpus_per_machine;
  for (const FlowRecord& f : sim.trace) {
    const auto slot = static_cast<std::size_t>(std::max<TimeNs>(0, f.start_time) /
                                               in.chunk);
    if (slot >= slots_total) break;
    chunks[slot][f.src.value() < gpus_per_half ? 0 : 1].add(f);
  }
  encode_chunks(chunks, in);
  return in;
}

StreamInput feed_from_window(const FlowView& view,
                             const TopologyConfig& topology,
                             double compression) {
  StreamInput in;
  in.topology = topology;
  in.streams = 1;
  in.chunk = kChunk;
  in.window = kWindow;
  in.reorder_slack = kReorderSlack;
  in.compression = compression;
  std::vector<std::vector<FlowTrace>> chunks;
  for (std::size_t i = 0; i < view.size(); ++i) {
    const auto slot = static_cast<std::size_t>(
        std::max<TimeNs>(0, view.start_ns[i]) / in.chunk);
    if (slot >= chunks.size()) chunks.resize(slot + 1, std::vector<FlowTrace>(1));
    chunks[slot][0].add(view.record(i));
  }
  encode_chunks(chunks, in);
  return in;
}

}  // namespace prismbench
