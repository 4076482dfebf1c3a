// The job-facing observability plane: Perfetto timeline export, per-job
// OpenMetrics series, and the incident lifecycle journal.
//
//  * structural validity: Chrome-trace JSON parses (json_lint), carries
//    per-rank tracks, phase slices, alert instants and counter samples;
//  * OpenMetrics exposition follows the text-format grammar, keeps metric
//    families contiguous and terminates with # EOF;
//  * the journal turns an injected straggler into exactly one deduplicated
//    open -> resolve lifecycle with a stable content-derived id;
//  * escaping: hostile job names (quotes, backslashes, control bytes,
//    non-ASCII) cannot break the JSON documents;
//  * edge cases: zero windows and single-window one-shot views;
//  * determinism: re-exporting the same ticks is byte-identical.
// (Cross-thread-count and warm/cold byte-equality of these exports is
// asserted in test_parallel_equivalence.cpp / test_session_equivalence.cpp.)
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "llmprism/core/monitor.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/export/journal.hpp"
#include "llmprism/export/perfetto.hpp"
#include "llmprism/export/series.hpp"
#include "llmprism/export/view.hpp"
#include "llmprism/simulator/cluster_sim.hpp"
#include "json_lint.hpp"

namespace llmprism {
namespace {

using testing::is_valid_json;
using testing::is_versioned_json;

JobSimConfig job(std::uint32_t tp, std::uint32_t dp, std::uint32_t pp,
                 std::uint32_t steps) {
  JobSimConfig cfg;
  cfg.parallelism.tp = tp;
  cfg.parallelism.dp = dp;
  cfg.parallelism.pp = pp;
  cfg.parallelism.micro_batches = 4;
  cfg.num_steps = steps;
  return cfg;
}

// Rank 8 is the first rank of its tp=8 sibling group, so the attributor's
// group representative (lowest-gpu co-culprit) is the straggler itself.
constexpr std::uint32_t kStragglerRank = 8;

/// Three tenants, one mid-run straggler in the pipeline-parallel job;
/// monitored in fixed windows. Built once, shared by every test.
struct Fleet {
  ClusterSimResult sim;
  std::vector<MonitorTick> ticks;
};

Fleet build_fleet() {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 12, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  auto j0 = job(8, 2, 2, 24);
  j0.stragglers.push_back({.rank = kStragglerRank, .step_begin = 8,
                           .step_end = 20, .slowdown = 2.5});
  cfg.jobs.push_back({j0, {}});
  cfg.jobs.push_back({job(8, 4, 1, 24), {}});
  cfg.jobs.push_back({job(4, 2, 2, 24), {}});
  cfg.seed = 77;
  ClusterSimResult sim = run_cluster_sim(cfg);

  MonitorConfig mc;
  mc.window = 4 * kSecond;
  OnlineMonitor monitor(sim.topology, mc);
  std::vector<MonitorTick> ticks = monitor.ingest(sim.trace);
  if (auto last = monitor.flush()) ticks.push_back(std::move(*last));
  return {std::move(sim), std::move(ticks)};
}

const Fleet& fleet() {
  static const Fleet* shared = new Fleet(build_fleet());
  return *shared;
}

std::string perfetto_output(const PerfettoOptions& options = {}) {
  PerfettoExporter exporter(options);
  for (const MonitorTick& tick : fleet().ticks) {
    exporter.add_window(export_view(tick));
  }
  std::ostringstream os;
  exporter.write(os);
  return os.str();
}

std::string series_openmetrics() {
  JobSeriesCollector series;
  for (const MonitorTick& tick : fleet().ticks) {
    series.add_window(export_view(tick));
  }
  std::ostringstream os;
  series.write_openmetrics(os);
  return os.str();
}

std::string series_jsonl() {
  JobSeriesCollector series;
  for (const MonitorTick& tick : fleet().ticks) {
    series.add_window(export_view(tick));
  }
  std::ostringstream os;
  series.write_jsonl(os);
  return os.str();
}

std::string journal_jsonl(JournalOptions options = {}) {
  IncidentJournal journal(options);
  for (const MonitorTick& tick : fleet().ticks) {
    journal.add_window(export_view(tick));
  }
  journal.finish();
  std::ostringstream os;
  journal.write_jsonl(os);
  return os.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// Value of a top-level `"key":"string"` field, or "" when absent.
std::string string_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto at = line.find(needle);
  if (at == std::string::npos) return {};
  const auto begin = at + needle.size();
  const auto end = line.find('"', begin);
  return line.substr(begin, end - begin);
}

// --- Perfetto -------------------------------------------------------------

TEST(PerfettoExport, IsValidVersionedChromeTraceJson) {
  const std::string out = perfetto_output();
  ASSERT_TRUE(is_valid_json(out)) << testing::JsonLinter(out).error();
  EXPECT_TRUE(is_versioned_json(out));
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
}

TEST(PerfettoExport, HasPerRankTracksPhaseSlicesAndAlertInstants) {
  const std::string out = perfetto_output();
  // Process + thread metadata for the per-job, per-rank track layout.
  EXPECT_NE(out.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("rank 0 (gpu"), std::string::npos);
  // Phase slices from the reconstructed timeline events.
  for (const char* phase : {"\"name\":\"compute\"", "\"name\":\"pp_send\"",
                            "\"name\":\"pp_recv\"", "\"name\":\"dp_sync\"",
                            "\"name\":\"step 0\""}) {
    EXPECT_NE(out.find(phase), std::string::npos) << phase;
  }
  // The injected straggler must surface as thread-scoped instant events.
  EXPECT_NE(out.find("\"name\":\"step alert\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  // Per-comm-type counter track.
  EXPECT_NE(out.find("\"name\":\"comm bytes/s\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
}

TEST(PerfettoExport, EscapesHostileJobNames) {
  PerfettoOptions options;
  options.job_names[0] = "tenant \"a\\b\"\n\x01 caf\xc3\xa9";
  const std::string out = perfetto_output(options);
  ASSERT_TRUE(is_valid_json(out)) << testing::JsonLinter(out).error();
  EXPECT_NE(out.find("tenant \\\"a\\\\b\\\"\\n\\u0001 caf\xc3\xa9"),
            std::string::npos);
}

TEST(PerfettoExport, EmptyExportIsValid) {
  PerfettoExporter exporter;
  std::ostringstream os;
  exporter.write(os);
  EXPECT_TRUE(is_valid_json(os.str()));
  EXPECT_TRUE(is_versioned_json(os.str()));
  EXPECT_EQ(exporter.num_events(), 0u);
}

TEST(PerfettoExport, DeterministicAcrossReruns) {
  EXPECT_EQ(perfetto_output(), perfetto_output());
}

// --- OpenMetrics series ---------------------------------------------------

/// name[{labels}] value timestamp — the slice of the exposition grammar
/// the series writer emits.
bool is_sample_line(const std::string& line) {
  std::size_t pos = 0;
  const auto name_char = [](char c, bool first) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || (!first && std::isdigit(static_cast<unsigned char>(c)));
  };
  if (line.empty() || !name_char(line[0], true)) return false;
  while (pos < line.size() && name_char(line[pos], false)) ++pos;
  if (pos < line.size() && line[pos] == '{') {
    const auto close = line.find('}', pos);
    if (close == std::string::npos) return false;
    pos = close + 1;
  }
  if (pos >= line.size() || line[pos] != ' ') return false;
  // value + timestamp: two space-separated float tokens.
  const std::string rest = line.substr(pos + 1);
  const auto space = rest.find(' ');
  if (space == std::string::npos) return false;
  char* end = nullptr;
  std::string value = rest.substr(0, space);
  std::string ts = rest.substr(space + 1);
  (void)std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') return false;
  (void)std::strtod(ts.c_str(), &end);
  return end != ts.c_str() && *end == '\0';
}

TEST(SeriesExport, OpenMetricsGrammarAndEofTerminator) {
  const std::string out = series_openmetrics();
  const auto lines = lines_of(out);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "# EOF");
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    const std::string& line = lines[i];
    const bool comment = line.rfind("# HELP ", 0) == 0 ||
                         line.rfind("# TYPE ", 0) == 0;
    EXPECT_TRUE(comment || is_sample_line(line)) << "bad line: " << line;
  }
}

TEST(SeriesExport, FamiliesAreContiguousAndLabelled) {
  const std::string out = series_openmetrics();
  // Family order of first appearance must have no later re-appearance.
  std::vector<std::string> family_order;
  for (const std::string& line : lines_of(out)) {
    if (line.empty() || line[0] == '#') continue;
    const std::string family = line.substr(0, line.find_first_of(" {"));
    if (family_order.empty() || family_order.back() != family) {
      for (const std::string& seen : family_order) {
        EXPECT_NE(seen, family) << "family split: " << family;
      }
      family_order.push_back(family);
    }
  }
  for (const char* expected :
       {"llmprism_job_step_duration_seconds", "llmprism_job_steps",
        "llmprism_job_comm_bandwidth_gbps", "llmprism_job_pp_bubble_ratio",
        "llmprism_job_self_time_excess_ratio", "llmprism_job_alerts",
        "llmprism_job_incidents", "llmprism_job_flows",
        "llmprism_rank_self_time_seconds"}) {
    EXPECT_NE(std::find(family_order.begin(), family_order.end(), expected),
              family_order.end())
        << expected;
  }
  EXPECT_NE(out.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(out.find("quantile=\"0.95\""), std::string::npos);
  EXPECT_NE(out.find("comm_type=\"dp\""), std::string::npos);
  EXPECT_NE(out.find("comm_type=\"pp\""), std::string::npos);
}

TEST(SeriesExport, JsonlHeaderAndEveryLineParses) {
  const auto lines = lines_of(series_jsonl());
  ASSERT_GE(lines.size(), 2u);  // header + at least one sample
  EXPECT_TRUE(is_versioned_json(lines[0]));
  EXPECT_NE(lines[0].find("\"stream\":\"job_series\""), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_TRUE(is_valid_json(line)) << line;
  }
  // One sample per (window, job): 3 jobs per complete window.
  JobSeriesCollector series;
  for (const MonitorTick& tick : fleet().ticks) {
    series.add_window(export_view(tick));
  }
  EXPECT_EQ(lines.size() - 1, series.samples().size());
  EXPECT_GE(series.samples().size(), 3u);
}

TEST(SeriesExport, StragglerWindowShowsSelfTimeExcess) {
  JobSeriesCollector series;
  for (const MonitorTick& tick : fleet().ticks) {
    series.add_window(export_view(tick));
  }
  double max_excess = 0;
  for (const JobWindowSample& s : series.samples()) {
    max_excess = std::max(max_excess, s.self_time_excess);
  }
  // A 2.5x compute straggler must dominate every healthy-window baseline.
  EXPECT_GT(max_excess, 0.5);
}

TEST(SeriesExport, EmptyCollectorStillTerminates) {
  JobSeriesCollector series;
  std::ostringstream om;
  series.write_openmetrics(om);
  const auto lines = lines_of(om.str());
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "# EOF");
  std::ostringstream jl;
  series.write_jsonl(jl);
  EXPECT_TRUE(is_versioned_json(lines_of(jl.str()).at(0)));
}

TEST(SeriesExport, DeterministicAcrossReruns) {
  EXPECT_EQ(series_openmetrics(), series_openmetrics());
  EXPECT_EQ(series_jsonl(), series_jsonl());
}

// --- Incident journal -----------------------------------------------------

TEST(JournalExport, EveryLineParsesBehindVersionedHeader) {
  const auto lines = lines_of(journal_jsonl());
  ASSERT_FALSE(lines.empty());
  EXPECT_TRUE(is_versioned_json(lines[0]));
  EXPECT_NE(lines[0].find("\"stream\":\"incident_journal\""),
            std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_TRUE(is_valid_json(line)) << line;
  }
}

TEST(JournalExport, InjectedStragglerHasOneOpenResolveLifecycle) {
  const auto lines = lines_of(journal_jsonl());
  const GpuId straggler_gpu = fleet().sim.jobs.at(0).gpus.at(kStragglerRank);
  const std::string gpu_field =
      "\"gpu\":" + std::to_string(straggler_gpu.value());

  std::string id;
  std::size_t opens = 0;
  for (const std::string& line : lines) {
    if (string_field(line, "event") == "open" &&
        string_field(line, "kind") == "rank" &&
        line.find(gpu_field) != std::string::npos) {
      ++opens;
      id = string_field(line, "id");
    }
  }
  ASSERT_EQ(opens, 1u) << "straggler must open exactly one incident";
  ASSERT_EQ(id.size(), 16u) << "content-derived id must be 16 hex chars";

  // The lifecycle of that id: open first, resolve last, nothing after.
  std::vector<std::string> events;
  for (const std::string& line : lines) {
    if (string_field(line, "id") == id) {
      events.push_back(string_field(line, "event"));
    }
  }
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events.front(), "open");
  EXPECT_EQ(events.back(), "resolve");
  for (std::size_t i = 1; i + 1 < events.size(); ++i) {
    EXPECT_EQ(events[i], "update") << "event " << i;
  }
}

TEST(JournalExport, StableIdsSurviveRestart) {
  // Re-running the same feed through a fresh journal derives the same ids
  // (they are content-derived, not allocation order).
  EXPECT_EQ(journal_jsonl(), journal_jsonl());
}

TEST(JournalExport, EmptyJournalIsJustTheHeader) {
  IncidentJournal journal;
  journal.finish();
  std::ostringstream os;
  journal.write_jsonl(os);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(is_versioned_json(lines[0]));
  EXPECT_EQ(journal.num_events(), 0u);
}

// --- single-window (one-shot) views ---------------------------------------

TEST(OneShotExport, SingleWindowViewDrivesAllThreeExports) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 4, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  auto j = job(8, 2, 2, 14);
  j.stragglers.push_back(
      {.rank = 3, .step_begin = 8, .step_end = 10, .slowdown = 2.5});
  cfg.jobs.push_back({j, {}});
  cfg.seed = 5;
  const ClusterSimResult sim = run_cluster_sim(cfg);

  const Prism prism(sim.topology);
  const PrismReport report = prism.analyze(FlowColumns(sim.trace).view());
  const WindowExportView view{sim.trace.span(), &report, {}};

  PerfettoExporter perfetto;
  perfetto.add_window(view);
  std::ostringstream pf;
  perfetto.write(pf);
  EXPECT_TRUE(is_valid_json(pf.str()))
      << testing::JsonLinter(pf.str()).error();
  EXPECT_GT(perfetto.num_events(), 0u);

  JobSeriesCollector series;
  series.add_window(view);
  ASSERT_EQ(series.samples().size(), 1u);
  EXPECT_GT(series.samples()[0].steps, 0u);
  std::ostringstream om;
  series.write_openmetrics(om);
  EXPECT_EQ(lines_of(om.str()).back(), "# EOF");

  IncidentJournal journal;
  journal.add_window(view);
  journal.finish();
  std::ostringstream jl;
  journal.write_jsonl(jl);
  for (const std::string& line : lines_of(jl.str())) {
    EXPECT_TRUE(is_valid_json(line)) << line;
  }
  // One window: whatever opened must have resolved by finish().
  EXPECT_EQ(journal.num_open(), 0u);
}

}  // namespace
}  // namespace llmprism
