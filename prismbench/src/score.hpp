// Verdict scoring against simulator ground truth.
//
// A fault counts as found when some incident names it as its TOP culprit,
// matched the way bench/bench_diagnosis_eval.cpp matches: a straggler by a
// rank culprit inside the straggler's TP stage group at an overlapping
// step, a slow ring by a DP-group culprit whose recovered component equals
// the ring, a switch by its id. An incident whose top culprit matches no
// injected fault is a false incident.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "llmprism/core/prism.hpp"
#include "workloads.hpp"

namespace prismbench {

struct VerdictScore {
  std::size_t true_jobs = 0;
  std::size_t exact_jobs = 0;      ///< recognized GPU set == true GPU set
  std::size_t faults = 0;
  std::size_t faults_top1 = 0;     ///< fault is some incident's top culprit
  std::size_t incidents = 0;
  std::size_t false_incidents = 0;

  VerdictScore& operator+=(const VerdictScore& other);
};

/// Score one batch report (the whole trace is one window, so reconstructed
/// step indices line up with the true ones).
[[nodiscard]] VerdictScore score_report(const PrismReport& report,
                                        const Truth& truth);

/// Score what the daemon published for one stream: the incident journal
/// (JSONL, every "open" event is one incident) for faults and false
/// incidents, and the report JSON of the stream's last window (which
/// covered `last_window`) for job recognition.
[[nodiscard]] VerdictScore score_stream(const std::string& journal_jsonl,
                                        const std::string& last_report_json,
                                        TimeWindow last_window,
                                        DurationNs window_length,
                                        std::size_t stream,
                                        const TopologyConfig& topology,
                                        const Truth& truth);

}  // namespace prismbench
