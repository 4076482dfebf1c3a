// Per-job, per-window time series of the monitored fleet.
//
// The obs registry (src/obs) describes LLMPrism itself; this collector
// describes the *jobs being watched*: every analyzed window contributes one
// sample per recognized job — step-duration quantiles, per-comm-type
// bandwidth, pipeline idle fraction, straggler self-time excess, alert and
// incident counts — keyed by the stable monitor job id so a long-running
// job is one continuous series across windows.
//
// Two writers over the same samples:
//  * write_openmetrics(): timestamped OpenMetrics text exposition
//    (family-contiguous, HELP/TYPE headers, `# EOF` terminator) suitable
//    for Prometheus scraping or a future prismd /metrics endpoint;
//  * write_jsonl(): one JSON object per sample behind a schema_version
//    header line, for SRE-platform ingestion.
//
// Step-duration quantiles go through the same fixed-bucket estimator as
// the self-telemetry histograms (obs::histogram_quantile), so there is one
// summary path in the codebase. All output is a deterministic function of
// the view sequence — bit-identical across thread counts and warm/cold
// sessions (enforced by the differential suites).
#pragma once

#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "llmprism/common/time.hpp"
#include "llmprism/export/view.hpp"
#include "llmprism/obs/metrics.hpp"

namespace llmprism {

/// One job's sample for one analyzed window.
struct JobWindowSample {
  std::uint64_t job = 0;  ///< stable monitor job id
  TimeWindow window;
  std::uint64_t steps = 0;          ///< reconstructed steps, all ranks
  double step_p50_s = 0;            ///< step-duration quantiles (seconds)
  double step_p95_s = 0;
  double dp_gbps = 0;               ///< per-comm-type average bandwidth
  double pp_gbps = 0;
  /// Mean over ranks of the unattributed-gap fraction of the rank's busy
  /// span (PP bubble / idle proxy; 0 when no events).
  double bubble_ratio = 0;
  /// Max over ranks of (median rank self time / across-rank median - 1),
  /// clamped at 0 — the straggler signal attribution scores on.
  double self_time_excess = 0;
  std::uint64_t step_alerts = 0;
  std::uint64_t group_alerts = 0;
  std::uint64_t incidents = 0;      ///< attributed incidents owned by job
  std::uint64_t flows = 0;
  /// Per-rank median step self time (gpu id, seconds).
  std::vector<std::pair<std::uint32_t, double>> rank_self_time_s;
};

class JobSeriesCollector {
 public:
  /// Append one analyzed window (one sample per job in the view).
  void add_window(const WindowExportView& view);

  /// OpenMetrics text exposition of all samples, with timestamps at the
  /// window end. Ends with "# EOF".
  void write_openmetrics(std::ostream& os) const;

  /// JSONL: {"schema_version":1,"stream":"job_series"} header line, then
  /// one JSON object per sample.
  void write_jsonl(std::ostream& os) const;

  [[nodiscard]] const std::vector<JobWindowSample>& samples() const {
    return samples_;
  }

 private:
  std::vector<JobWindowSample> samples_;
};

}  // namespace llmprism
