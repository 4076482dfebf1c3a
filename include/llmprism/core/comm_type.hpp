// Communication-type identification (paper Alg. 2, §IV-B).
//
// For every communication pair of a job:
//  1. compute inter-flow intervals,
//  2. divide the pair's flows into training steps with BOCD over the
//     interval sequence (change-point when P(r=0) > 0.95),
//  3. count the distinct flow sizes N_k per step; the pair is PP iff
//     Mode(N_k) == 1 (PP messages have one consistent size; DP collectives
//     split into several flows of varying sizes),
//  4. noise refinement: DP membership is transitive, so every pair whose
//     endpoints land in the same connected component of the DP graph is
//     flipped to DP (recovers DP pairs whose bursts the collector
//     truncated to a single size).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "llmprism/bocd/bocd.hpp"
#include "llmprism/common/comm_type.hpp"
#include "llmprism/common/ids.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

class ThreadPool;

struct CommTypeConfig {
  /// Gap segmenter (BOCD) settings for step division over inter-flow
  /// intervals.
  SegmenterConfig segmenter;
  /// Flow sizes within this relative tolerance count as one distinct size
  /// (absorbs collector size-reporting jitter; DP buckets differ by far
  /// more).
  double size_tolerance = 0.05;
  /// Size clusters carrying less than this fraction of a pair's flows are
  /// collector artifacts (partially recorded flows), not bucket structure,
  /// and are ignored when counting distinct sizes. Without this, ONE
  /// partial record can flip a PP pair to DP, whose false edge then bridges
  /// two DP components and the refinement flips every PP pair between the
  /// two stages (a transitivity cascade). Real DP buckets each carry far
  /// more than this share.
  double min_size_share = 0.03;
};

struct PairClassification {
  GpuPair pair;
  CommType type = CommType::kPP;
  /// Classification before refinement (equal to `type` when the refinement
  /// did not touch the pair). Table I's "w/o refinement" column scores
  /// this field.
  CommType pre_refinement_type = CommType::kPP;
  std::size_t num_flows = 0;
  std::size_t num_steps_observed = 0;
};

/// Deterministic work/outcome counters of one identify() call — what the
/// stage filtered or repaired, which otherwise vanishes silently. Event
/// counts only (no wall clock): totals are thread-count-invariant and are
/// folded into PrismReport::telemetry.
struct CommTypeCounters {
  /// BOCD step-division work across the job's pairs.
  SegmenterStats segmenter;
  /// Rare-size clusters judged collector artifacts (below min_size_share)
  /// and excluded from distinct-size counting.
  std::uint64_t artifact_size_clusters = 0;
  /// Flows inside those artifact clusters.
  std::uint64_t artifact_flows = 0;
  /// Segments that carried only artifact sizes and contributed no
  /// distinct-size evidence.
  std::uint64_t artifact_segments = 0;
  /// PP pairs flipped to DP by the transitivity refinement.
  std::uint64_t refinement_flips = 0;

  CommTypeCounters& operator+=(const CommTypeCounters& other) {
    segmenter += other.segmenter;
    artifact_size_clusters += other.artifact_size_clusters;
    artifact_flows += other.artifact_flows;
    artifact_segments += other.artifact_segments;
    refinement_flips += other.refinement_flips;
    return *this;
  }
};

/// Cross-window warm priors for one job's pair classifications, carried by
/// PrismSession. identify() consults the previous window's pre-refinement
/// type per pair and re-runs the full BOCD step division only for pairs
/// that are new or whose whole-window distinct-size count contradicts the
/// prior (PP pairs must show exactly one distinct size; DP pairs several).
/// The DP-transitivity refinement always re-runs, so the final types and
/// dp_components of a consistent window are field-for-field what the cold
/// path would produce; only the work telemetry (BOCD counts,
/// num_steps_observed of reused pairs) shrinks.
struct CommTypeCarry {
  /// pair -> pre-refinement type from the last full classification.
  std::unordered_map<GpuPair, CommType> pre_types;
  /// Per-call outcome (reset by each warm identify() call).
  std::uint64_t pairs_reused = 0;
  std::uint64_t pairs_reclassified = 0;
};

struct CommTypeResult {
  std::vector<PairClassification> pairs;
  /// Connected components of the DP graph — the recovered DP groups
  /// (GPU ids, ascending within each component).
  std::vector<std::vector<GpuId>> dp_components;
  /// Self-telemetry of the identification run.
  CommTypeCounters counters;

  [[nodiscard]] std::unordered_map<GpuPair, CommType> types() const;
};

class CommTypeIdentifier {
 public:
  explicit CommTypeIdentifier(CommTypeConfig config = {});

  /// Classify every communication pair appearing in `view` (the flows of
  /// one recognized job, sorted by time) over its prebuilt CSR pair index
  /// (built once per job and shared with timeline reconstruction and
  /// DP-flow collection). Reads only the start_ns and bytes columns — never
  /// materializes a FlowRecord. When `flow_types` is non-null it receives,
  /// per row, the final (post-refinement) type of that flow's pair — the
  /// dense replacement for probing an unordered_map per flow. On a sorted
  /// view no per-pair re-sorting happens: CSR positions are already
  /// chronological.
  ///
  /// When `carry` is non-null, the previous window's classifications serve
  /// as warm priors (see CommTypeCarry); the carry is updated in place with
  /// this window's pre-refinement types. Null carry is the cold path,
  /// bit-identical to before the session layer existed.
  ///
  /// When `pool` is non-null the per-pair classification fans out across
  /// it. Every pair writes a pre-sized slot indexed by its dense pair id
  /// and counters are folded in pair-id order afterwards, so the result is
  /// bit-identical at any thread count (and to `pool == nullptr`).
  [[nodiscard]] CommTypeResult identify(
      const FlowView& view, const PairIndex& index,
      std::vector<CommType>* flow_types = nullptr,
      CommTypeCarry* carry = nullptr, ThreadPool* pool = nullptr) const;

  /// Count distinct flow sizes under the configured relative tolerance.
  /// Exposed for tests and the ablation bench.
  [[nodiscard]] std::size_t count_distinct_sizes(
      std::vector<std::uint64_t> sizes) const;

 private:
  CommTypeConfig config_;
};

}  // namespace llmprism
