#include "score.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "common.hpp"

namespace prismbench {

namespace {

bool contains(const std::vector<GpuId>& gpus, GpuId gpu) {
  return std::binary_search(gpus.begin(), gpus.end(), gpu);
}

bool steps_overlap(const AttributedIncident& incident, const FaultTruth& f) {
  constexpr std::size_t kSlack = 1;
  return incident.step_begin <= f.step_end + kSlack &&
         incident.step_end + kSlack >= f.step_begin;
}

bool overlaps(TimeWindow a, TimeWindow b) {
  return a.begin < b.end && b.begin < a.end;
}

}  // namespace

VerdictScore& VerdictScore::operator+=(const VerdictScore& other) {
  true_jobs += other.true_jobs;
  exact_jobs += other.exact_jobs;
  faults += other.faults;
  faults_top1 += other.faults_top1;
  incidents += other.incidents;
  false_incidents += other.false_incidents;
  return *this;
}

VerdictScore score_report(const PrismReport& report, const Truth& truth) {
  VerdictScore score;
  score.true_jobs = truth.jobs.size();
  for (const JobFacts& job : truth.jobs) {
    for (const RecognizedJob& found : report.recognition.jobs) {
      if (found.gpus == job.gpus) {
        ++score.exact_jobs;
        break;
      }
    }
  }

  score.faults = truth.faults.size();
  std::vector<bool> found(truth.faults.size(), false);
  for (const AttributedIncident& incident : report.attribution.incidents) {
    ++score.incidents;
    if (incident.culprits.empty()) {
      ++score.false_incidents;
      continue;
    }
    const Culprit& top = incident.culprits.front();
    bool matched = false;
    for (std::size_t i = 0; i < truth.faults.size(); ++i) {
      const FaultTruth& f = truth.faults[i];
      bool hit = false;
      switch (f.kind) {
        case FaultKind::kStraggler:
          hit = top.kind == CulpritKind::kRank &&
                contains(f.culprit_gpus, top.gpu) &&
                steps_overlap(incident, f);
          break;
        case FaultKind::kSlowRing:
          if (top.kind == CulpritKind::kDpGroup && incident.job.valid() &&
              incident.job.value() < report.jobs.size()) {
            const auto& components =
                report.jobs[incident.job.value()].comm_types.dp_components;
            hit = top.dp_group_index < components.size() &&
                  components[top.dp_group_index] == f.ring &&
                  steps_overlap(incident, f);
          }
          break;
        case FaultKind::kDegradedSwitch:
          hit = top.kind == CulpritKind::kSwitch && top.switch_id == f.switch_id;
          break;
      }
      if (hit) {
        found[i] = true;
        matched = true;
      }
    }
    if (!matched) ++score.false_incidents;
  }
  score.faults_top1 =
      static_cast<std::size_t>(std::count(found.begin(), found.end(), true));
  return score;
}

VerdictScore score_stream(const std::string& journal_jsonl,
                          const std::string& last_report_json,
                          TimeWindow last_window, DurationNs window_length,
                          std::size_t stream, const TopologyConfig& topology,
                          const Truth& truth) {
  VerdictScore score;
  std::vector<const FaultTruth*> faults;
  for (const FaultTruth& f : truth.faults) {
    const bool on_stream = f.kind == FaultKind::kDegradedSwitch ||
                           truth.jobs[f.job].stream == stream;
    if (on_stream) faults.push_back(&f);
  }
  score.faults = faults.size();
  std::vector<bool> found(faults.size(), false);

  std::istringstream lines(journal_jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"event\":\"open\"") == std::string::npos) continue;
    ++score.incidents;
    const auto time_ns = json_uint(line, "time_ns");
    // The window the incident opened in, widened by one window each side:
    // a step straddling a boundary may alert in either neighbour.
    const TimeNs begin = time_ns ? static_cast<TimeNs>(*time_ns) : 0;
    const TimeWindow seen{begin - window_length, begin + 2 * window_length};
    bool matched = false;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const FaultTruth& f = *faults[i];
      bool hit = false;
      if (f.kind == FaultKind::kStraggler &&
          line.find("\"kind\":\"rank\"") != std::string::npos) {
        const auto gpu = json_uint(line, "gpu");
        hit = gpu && contains(f.culprit_gpus,
                              GpuId(static_cast<std::uint32_t>(*gpu))) &&
              overlaps(seen, f.time);
      } else if (f.kind == FaultKind::kDegradedSwitch &&
                 line.find("\"kind\":\"switch\"") != std::string::npos) {
        const auto sw = json_uint(line, "switch");
        hit = sw && *sw == f.switch_id.value() && overlaps(seen, f.time);
      }
      if (hit) {
        found[i] = true;
        matched = true;
      }
    }
    if (!matched) ++score.false_incidents;
  }
  score.faults_top1 =
      static_cast<std::size_t>(std::count(found.begin(), found.end(), true));

  // Recognized jobs of the last window: "gpus":N,"machines":[...] each.
  struct Seen {
    std::uint64_t gpus;
    std::vector<std::uint32_t> machines;
  };
  std::vector<Seen> recognized;
  for (std::size_t at = last_report_json.find("\"gpus\":");
       at != std::string::npos;
       at = last_report_json.find("\"gpus\":", at + 1)) {
    Seen s{json_uint(last_report_json, "gpus", at).value_or(0), {}};
    std::size_t p = last_report_json.find("\"machines\":[", at);
    if (p == std::string::npos) break;
    p += 12;
    while (p < last_report_json.size() && last_report_json[p] != ']') {
      const char* begin = last_report_json.c_str() + p;
      char* end = nullptr;
      const unsigned long machine = std::strtoul(begin, &end, 10);
      if (end == begin) break;
      s.machines.push_back(static_cast<std::uint32_t>(machine));
      p = static_cast<std::size_t>(end - last_report_json.c_str());
      if (p < last_report_json.size() && last_report_json[p] == ',') ++p;
    }
    recognized.push_back(std::move(s));
  }
  for (const JobFacts& job : truth.jobs) {
    if (job.stream != stream || job.active.begin > last_window.begin ||
        job.active.end < last_window.end) {
      continue;
    }
    ++score.true_jobs;
    std::vector<std::uint32_t> machines;
    for (const GpuId g : job.gpus) {
      machines.push_back(g.value() / topology.gpus_per_machine);
    }
    machines.erase(std::unique(machines.begin(), machines.end()),
                   machines.end());
    for (const Seen& s : recognized) {
      if (s.gpus == job.gpus.size() && s.machines == machines) {
        ++score.exact_jobs;
        break;
      }
    }
  }
  return score;
}

}  // namespace prismbench
