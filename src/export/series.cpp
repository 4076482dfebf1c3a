#include "llmprism/export/series.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "llmprism/common/json.hpp"
#include "llmprism/core/attribution.hpp"
#include "emit.hpp"

namespace llmprism {

namespace {

using detail::write_double;

/// Median of an unsorted copy; 0 for empty input.
[[nodiscard]] double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  if (xs.size() % 2 == 1) return xs[mid];
  return (xs[mid - 1] + xs[mid]) / 2.0;
}

/// OpenMetrics timestamp: seconds with millisecond resolution.
void write_timestamp(std::ostream& os, TimeNs t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", to_seconds(t));
  os << buf;
}

/// Label values per the exposition format: backslash, double-quote and
/// line feed are escaped. Only fixed vocabularies and decimal ids flow
/// through today, but the writer must not rely on that.
void write_label_value(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '\\':
        os << "\\\\";
        break;
      case '"':
        os << "\\\"";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        os << c;
    }
  }
  os << '"';
}

void write_value(std::ostream& os, double v) {
  std::string s;
  write_double(s, v);
  os << s;
}

/// One sample line: name{label_0,...} value timestamp.
void write_sample(std::ostream& os, std::string_view name,
                  std::initializer_list<std::pair<const char*, std::string>>
                      labels,
                  double value, TimeNs timestamp) {
  os << name;
  if (labels.size() != 0) {
    os << '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) os << ',';
      first = false;
      os << k << '=';
      write_label_value(os, v);
    }
    os << '}';
  }
  os << ' ';
  write_value(os, value);
  os << ' ';
  write_timestamp(os, timestamp);
  os << '\n';
}

}  // namespace

void JobSeriesCollector::add_window(const WindowExportView& view) {
  if (view.report == nullptr) return;
  const double window_s = to_seconds(view.window.length());
  for (std::size_t j = 0; j < view.report->jobs.size(); ++j) {
    const JobAnalysis& job = view.report->jobs[j];
    JobWindowSample sample;
    sample.job = stable_job_id(view, j);
    sample.window = view.window;
    sample.flows = job.trace.size();
    sample.step_alerts = job.step_alerts.size();
    sample.group_alerts = job.group_alerts.size();
    for (const AttributedIncident& inc :
         view.report->attribution.incidents) {
      if (inc.job == job.id) ++sample.incidents;
    }

    // Step-duration quantiles through the shared fixed-bucket estimator
    // (obs::histogram_quantile) — same summary path as self-telemetry.
    obs::Histogram::Snapshot snap;
    snap.bounds = obs::Histogram::default_seconds_buckets();
    snap.counts.assign(snap.bounds.size() + 1, 0);
    for (const GpuTimeline& tl : job.timelines) {
      for (const ReconstructedStep& s : tl.steps) {
        const double d = to_seconds(s.duration());
        const auto it =
            std::lower_bound(snap.bounds.begin(), snap.bounds.end(), d);
        ++snap.counts[static_cast<std::size_t>(it - snap.bounds.begin())];
        snap.sum += d;
        ++snap.count;
      }
    }
    sample.steps = snap.count;
    sample.step_p50_s = obs::histogram_quantile(snap, 0.50);
    sample.step_p95_s = obs::histogram_quantile(snap, 0.95);

    // Per-comm-type average bandwidth over the window.
    if (window_s > 0.0 && !job.trace.empty()) {
      const auto types = job.comm_types.types();
      std::uint64_t dp_bytes = 0;
      std::uint64_t pp_bytes = 0;
      for (const FlowRecord& f : job.trace) {
        const auto it = types.find(f.pair());
        if (it != types.end() && it->second == CommType::kDP) {
          dp_bytes += f.bytes;
        } else {
          pp_bytes += f.bytes;
        }
      }
      sample.dp_gbps =
          static_cast<double>(dp_bytes) * 8.0 / window_s / 1e9;
      sample.pp_gbps =
          static_cast<double>(pp_bytes) * 8.0 / window_s / 1e9;
    }

    // Idle / bubble proxy: the fraction of each rank's active span not
    // covered by any reconstructed event, averaged across ranks. Compute
    // fill already absorbs gaps >= min_compute_gap, so what remains is
    // launch latency plus genuine pipeline bubbles.
    double bubble_sum = 0.0;
    std::size_t bubble_ranks = 0;
    for (const GpuTimeline& tl : job.timelines) {
      if (tl.events.empty()) continue;
      const TimeNs span_begin = tl.events.front().start;
      TimeNs span_end = span_begin;
      DurationNs busy = 0;
      for (const TimelineEvent& ev : tl.events) {
        busy += ev.end - ev.start;
        span_end = std::max(span_end, ev.end);
      }
      const DurationNs span = span_end - span_begin;
      if (span <= 0) continue;
      const double ratio = 1.0 - static_cast<double>(busy) /
                                     static_cast<double>(span);
      bubble_sum += std::clamp(ratio, 0.0, 1.0);
      ++bubble_ranks;
    }
    if (bubble_ranks > 0) {
      sample.bubble_ratio = bubble_sum / static_cast<double>(bubble_ranks);
    }

    // Straggler signal: per-rank median step self time, and the excess of
    // the slowest rank over the across-rank median (the quantity the
    // attributor blames ranks by).
    std::vector<double> rank_medians;
    for (const GpuTimeline& tl : job.timelines) {
      const double med = median(Attributor::step_self_times(tl));
      sample.rank_self_time_s.emplace_back(tl.gpu.value(), med);
      if (med > 0.0) rank_medians.push_back(med);
    }
    if (rank_medians.size() >= 2) {
      const double max_median =
          *std::max_element(rank_medians.begin(), rank_medians.end());
      const double across = median(rank_medians);
      if (across > 0.0) {
        sample.self_time_excess = std::max(max_median / across - 1.0, 0.0);
      }
    }

    samples_.push_back(std::move(sample));
  }
}

void JobSeriesCollector::write_openmetrics(std::ostream& os) const {
  struct Family {
    const char* name;
    const char* help;
  };
  const auto emit_family = [&](const Family& f, auto&& per_sample) {
    os << "# HELP " << f.name << ' ' << f.help << '\n';
    os << "# TYPE " << f.name << " gauge\n";
    for (const JobWindowSample& s : samples_) per_sample(f.name, s);
  };

  emit_family(
      {"llmprism_job_step_duration_seconds",
       "Reconstructed step duration quantiles across the job's ranks."},
      [&](const char* name, const JobWindowSample& s) {
        write_sample(os, name,
                     {{"job", std::to_string(s.job)}, {"quantile", "0.5"}},
                     s.step_p50_s, s.window.end);
        write_sample(os, name,
                     {{"job", std::to_string(s.job)}, {"quantile", "0.95"}},
                     s.step_p95_s, s.window.end);
      });
  emit_family({"llmprism_job_steps",
               "Reconstructed training steps in the window (all ranks)."},
              [&](const char* name, const JobWindowSample& s) {
                write_sample(os, name, {{"job", std::to_string(s.job)}},
                             static_cast<double>(s.steps), s.window.end);
              });
  emit_family(
      {"llmprism_job_comm_bandwidth_gbps",
       "Average cross-machine bandwidth by communication type (Gbit/s)."},
      [&](const char* name, const JobWindowSample& s) {
        write_sample(os, name,
                     {{"job", std::to_string(s.job)}, {"comm_type", "dp"}},
                     s.dp_gbps, s.window.end);
        write_sample(os, name,
                     {{"job", std::to_string(s.job)}, {"comm_type", "pp"}},
                     s.pp_gbps, s.window.end);
      });
  emit_family({"llmprism_job_pp_bubble_ratio",
               "Mean unattributed-gap fraction of each rank's active span "
               "(pipeline bubble / idle proxy)."},
              [&](const char* name, const JobWindowSample& s) {
                write_sample(os, name, {{"job", std::to_string(s.job)}},
                             s.bubble_ratio, s.window.end);
              });
  emit_family({"llmprism_job_self_time_excess_ratio",
               "Relative excess of the slowest rank's median step self time "
               "over the across-rank median (straggler signal)."},
              [&](const char* name, const JobWindowSample& s) {
                write_sample(os, name, {{"job", std::to_string(s.job)}},
                             s.self_time_excess, s.window.end);
              });
  emit_family({"llmprism_job_alerts",
               "k-sigma alerts raised for the job in the window, by kind."},
              [&](const char* name, const JobWindowSample& s) {
                write_sample(os, name,
                             {{"job", std::to_string(s.job)},
                              {"kind", "step"}},
                             static_cast<double>(s.step_alerts),
                             s.window.end);
                write_sample(os, name,
                             {{"job", std::to_string(s.job)},
                              {"kind", "group"}},
                             static_cast<double>(s.group_alerts),
                             s.window.end);
              });
  emit_family({"llmprism_job_incidents",
               "Attributed incidents owned by the job in the window."},
              [&](const char* name, const JobWindowSample& s) {
                write_sample(os, name, {{"job", std::to_string(s.job)}},
                             static_cast<double>(s.incidents), s.window.end);
              });
  emit_family({"llmprism_job_flows",
               "Flows routed to the job in the window."},
              [&](const char* name, const JobWindowSample& s) {
                write_sample(os, name, {{"job", std::to_string(s.job)}},
                             static_cast<double>(s.flows), s.window.end);
              });
  emit_family({"llmprism_rank_self_time_seconds",
               "Median per-step self time (compute before PP hand-off) "
               "of one rank."},
              [&](const char* name, const JobWindowSample& s) {
                for (const auto& [gpu, v] : s.rank_self_time_s) {
                  write_sample(os, name,
                               {{"job", std::to_string(s.job)},
                                {"rank", std::to_string(gpu)}},
                               v, s.window.end);
                }
              });
  os << "# EOF\n";
}

void JobSeriesCollector::write_jsonl(std::ostream& os) const {
  os << "{\"schema_version\":1,\"stream\":\"job_series\"}\n";
  for (const JobWindowSample& s : samples_) {
    std::string line;
    line += "{\"job\":" + std::to_string(s.job);
    line += ",\"window_begin_ns\":" + std::to_string(s.window.begin);
    line += ",\"window_end_ns\":" + std::to_string(s.window.end);
    line += ",\"steps\":" + std::to_string(s.steps);
    line += ",\"step_p50_s\":";
    write_double(line, s.step_p50_s);
    line += ",\"step_p95_s\":";
    write_double(line, s.step_p95_s);
    line += ",\"dp_gbps\":";
    write_double(line, s.dp_gbps);
    line += ",\"pp_gbps\":";
    write_double(line, s.pp_gbps);
    line += ",\"bubble_ratio\":";
    write_double(line, s.bubble_ratio);
    line += ",\"self_time_excess\":";
    write_double(line, s.self_time_excess);
    line += ",\"step_alerts\":" + std::to_string(s.step_alerts);
    line += ",\"group_alerts\":" + std::to_string(s.group_alerts);
    line += ",\"incidents\":" + std::to_string(s.incidents);
    line += ",\"flows\":" + std::to_string(s.flows);
    line += ",\"ranks\":[";
    bool first = true;
    for (const auto& [gpu, v] : s.rank_self_time_s) {
      if (!first) line += ',';
      first = false;
      line += "{\"gpu\":" + std::to_string(gpu) + ",\"self_time_s\":";
      write_double(line, v);
      line += '}';
    }
    line += "]}";
    os << line << '\n';
  }
}

}  // namespace llmprism
