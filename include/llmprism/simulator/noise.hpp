// Collection-noise model (§IV-B: "packet loss, retransmission, or
// incomplete flow collection").
//
// Applied post-generation to a trace, mimicking what an ERSPAN-style
// collector actually delivers:
//  - i.i.d. flow drop (mirror-port packet loss),
//  - duplicated flows (retransmission re-mirrored),
//  - reported-size and reported-time jitter (collector quantization),
//  - *correlated burst truncation*: for a "degraded" subset of pairs, the
//    collector's buffer overflows during a traffic burst and only the head
//    of the burst survives. A truncated DP burst keeps only its first
//    bucket's flows — one distinct size — which is exactly the corruption
//    that makes DP pairs masquerade as PP in Table I (w/o refinement).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "llmprism/common/rng.hpp"
#include "llmprism/common/time.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

struct NoiseConfig {
  double drop_rate = 0.0;          ///< P(flow lost), i.i.d.
  double duplicate_rate = 0.0;     ///< P(flow duplicated), i.i.d.
  double size_jitter_rate = 0.0;   ///< P(reported size perturbed)
  double size_jitter_frac = 0.02;  ///< relative size perturbation bound
  /// P(flow recorded partially): the collector saw only a fraction of the
  /// flow's packets, so the reported size is a random cut of the true one.
  double partial_record_rate = 0.0;
  DurationNs time_jitter = 0;      ///< uniform +- bound on start times

  /// Fraction of communication pairs whose collection is degraded.
  double degraded_pair_fraction = 0.0;
  /// For a degraded pair, P(burst truncated) per burst, drawn uniformly per
  /// pair from [min, max] — heterogeneous degradation is what keeps some
  /// pairs misclassified even with long windows (Table I's slow decay).
  double truncation_prob_min = 0.3;
  double truncation_prob_max = 0.6;
  /// Two flows of one pair closer than this belong to one burst.
  DurationNs burst_gap = 100 * kMillisecond;

  [[nodiscard]] bool enabled() const {
    return drop_rate > 0 || duplicate_rate > 0 || size_jitter_rate > 0 ||
           partial_record_rate > 0 || time_jitter > 0 ||
           degraded_pair_fraction > 0;
  }

  /// Descriptive configuration errors (empty = valid): probabilities must
  /// be in [0, 1], truncation_prob_min must not exceed _max, durations must
  /// be >= 0. apply_noise() throws std::invalid_argument listing them.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Returns `trace` corrupted by `config` (sorted). Deterministic given
/// `rng`. Takes the columns by value so a caller that moves them in holds
/// no second copy: with noise disabled they are returned as they are
/// (sorted), and otherwise they are freed before the kept rows are sorted.
/// Throws std::invalid_argument when `config` fails validate().
[[nodiscard]] FlowColumns apply_noise(FlowColumns trace,
                                      const NoiseConfig& config, Rng& rng);

}  // namespace llmprism
