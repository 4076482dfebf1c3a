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
//  * determinism: re-exporting the same ticks is byte-identical;
//  * golden bytes: XXH64 digests of every export document are pinned, so a
//    serialization rewrite cannot change a single byte unnoticed.
// (Cross-thread-count and warm/cold byte-equality of these exports is
// asserted in test_parallel_equivalence.cpp / test_session_equivalence.cpp.)
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "llmprism/common/hash.hpp"
#include "llmprism/core/monitor.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/core/render.hpp"
#include "llmprism/export/config.hpp"
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

ClusterSimConfig fleet_config() {
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
  return cfg;
}

Fleet build_fleet() {
  ClusterSimResult sim = run_cluster_sim(fleet_config());

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

/// The fleet's views with every window shifted by `shift` (the reports are
/// untouched): moves timestamps, counter-bin origins and journal times
/// without re-running the analysis.
std::vector<WindowExportView> fleet_views(DurationNs shift = 0) {
  std::vector<WindowExportView> views;
  for (const MonitorTick& tick : fleet().ticks) {
    WindowExportView view = export_view(tick);
    view.window.begin += shift;
    view.window.end += shift;
    views.push_back(view);
  }
  return views;
}

std::string perfetto_output(const PerfettoOptions& options = {},
                            DurationNs shift = 0) {
  PerfettoExporter exporter(options);
  for (const WindowExportView& view : fleet_views(shift)) {
    exporter.add_window(view);
  }
  std::ostringstream os;
  exporter.write(os);
  return os.str();
}

std::string series_openmetrics(DurationNs shift = 0) {
  JobSeriesCollector series;
  for (const WindowExportView& view : fleet_views(shift)) {
    series.add_window(view);
  }
  std::ostringstream os;
  series.write_openmetrics(os);
  return os.str();
}

std::string series_jsonl(DurationNs shift = 0) {
  JobSeriesCollector series;
  for (const WindowExportView& view : fleet_views(shift)) {
    series.add_window(view);
  }
  std::ostringstream os;
  series.write_jsonl(os);
  return os.str();
}

std::string journal_jsonl(DurationNs shift = 0) {
  IncidentJournal journal;
  for (const WindowExportView& view : fleet_views(shift)) {
    journal.add_window(view);
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

// --- Perfetto deferred formatting -------------------------------------------
// add_window() only records the slices; write() formats them. These pin the
// contract that makes that safe: nothing points into a report, write() is
// const and repeatable, and the values format as the in-memory serializer
// did.

std::string write_perfetto(const PerfettoExporter& exporter) {
  std::ostringstream os;
  exporter.write(os);
  return os.str();
}

TEST(PerfettoDeferred, ReportsMayDieBeforeWrite) {
  PerfettoExporter exporter;
  {
    MonitorConfig mc;
    mc.window = 4 * kSecond;
    OnlineMonitor monitor(fleet().sim.topology, mc);
    std::vector<MonitorTick> ticks = monitor.ingest(fleet().sim.trace);
    if (auto last = monitor.flush()) ticks.push_back(std::move(*last));
    for (const MonitorTick& tick : ticks) exporter.add_window(export_view(tick));
  }
  // Under ASan a dangling pointer into the destroyed ticks fails here.
  EXPECT_EQ(write_perfetto(exporter), perfetto_output());
}

TEST(PerfettoDeferred, RepeatedWritesAreIdentical) {
  PerfettoExporter exporter;
  for (const WindowExportView& view : fleet_views()) exporter.add_window(view);
  const std::string first = write_perfetto(exporter);
  EXPECT_EQ(write_perfetto(exporter), first);
}

TEST(PerfettoDeferred, AddWindowAfterWriteContinuesTheDocument) {
  const std::vector<WindowExportView> views = fleet_views();
  ASSERT_GE(views.size(), 2u);
  PerfettoExporter exporter;
  const std::size_t half = views.size() / 2;
  for (std::size_t i = 0; i < half; ++i) exporter.add_window(views[i]);
  const std::string partial = write_perfetto(exporter);
  EXPECT_TRUE(is_valid_json(partial)) << testing::JsonLinter(partial).error();
  for (std::size_t i = half; i < views.size(); ++i) {
    exporter.add_window(views[i]);
  }
  EXPECT_EQ(write_perfetto(exporter), perfetto_output());
}

TEST(PerfettoDeferred, NumEventsIsKnownBeforeWrite) {
  PerfettoExporter exporter;
  for (const WindowExportView& view : fleet_views()) exporter.add_window(view);
  const std::size_t counted = exporter.num_events();
  // Every event object starts on its own line; escaped names hold no raw
  // newline.
  const std::string out = write_perfetto(exporter);
  std::size_t starts = 0;
  for (std::size_t at = out.find("\n{"); at != std::string::npos;
       at = out.find("\n{", at + 1)) {
    ++starts;
  }
  EXPECT_GT(counted, 0u);
  EXPECT_EQ(counted, starts);
}

TEST(PerfettoDeferred, WideStepIndexAndLargestPeerFormatExactly) {
  PrismReport report;
  JobAnalysis& job = report.jobs.emplace_back();
  job.id = JobId(5);
  job.job.gpus = {GpuId(3), GpuId(9)};
  job.inferred.tp = 2;
  GpuTimeline& tl = job.timelines.emplace_back();
  tl.gpu = GpuId(9);
  // A step index past 32 bits, and the largest id that is still valid.
  tl.steps.push_back(
      {.index = (std::size_t{1} << 32) + 7, .begin = -1'500, .end = 2'000'001});
  const GpuId peer(std::numeric_limits<GpuId::rep_type>::max() - 1);
  tl.events.push_back({TimelineEventKind::kPpSend, -1'500, 1'234, peer});
  tl.events.push_back({TimelineEventKind::kCompute, 1'234, 1'000'000, {}});
  tl.events.push_back({TimelineEventKind::kDp, 1'000'000, 2'000'001, {}});

  PerfettoExporter exporter;
  exporter.add_window({{0, kSecond}, &report, {}});
  report.jobs.clear();
  EXPECT_EQ(exporter.num_events(), 8u);
  EXPECT_EQ(
      write_perfetto(exporter),
      "{\"schema_version\":1,\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":7,\"tid\":0,"
      "\"args\":{\"name\":\"job 5 (tp=2,dp=1,pp=1)\"}},"
      "\n{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":7,\"tid\":0,"
      "\"args\":{\"sort_index\":7}},"
      "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":7,\"tid\":9,"
      "\"args\":{\"name\":\"rank 1 (gpu 9)\"}},"
      "\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":7,\"tid\":9,"
      "\"args\":{\"sort_index\":1}},"
      "\n{\"name\":\"step 4294967303\",\"ph\":\"X\",\"pid\":7,\"tid\":9,"
      "\"ts\":-1.500,\"dur\":2001.501},"
      "\n{\"name\":\"pp_send\",\"ph\":\"X\",\"pid\":7,\"tid\":9,"
      "\"ts\":-1.500,\"dur\":2.734,\"args\":{\"peer\":4294967294}},"
      "\n{\"name\":\"compute\",\"ph\":\"X\",\"pid\":7,\"tid\":9,"
      "\"ts\":1.234,\"dur\":998.766},"
      "\n{\"name\":\"dp_sync\",\"ph\":\"X\",\"pid\":7,\"tid\":9,"
      "\"ts\":1000.000,\"dur\":1000.001}"
      "\n]}\n");
}

/// Accepts nothing and counts the write calls it was offered.
class FailingBuf : public std::streambuf {
 public:
  std::size_t writes = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize) override {
    ++writes;
    return 0;
  }
  int_type overflow(int_type) override {
    ++writes;
    return traits_type::eof();
  }
};

TEST(PerfettoDeferred, StopsFormattingOnceTheStreamFails) {
  PerfettoExporter exporter;
  for (const WindowExportView& view : fleet_views()) exporter.add_window(view);
  FailingBuf buf;
  std::ostream os(&buf);
  exporter.write(os);
  EXPECT_TRUE(os.bad());
  // The 9 MB document would take many staging buffers; the first failed
  // write ends it.
  EXPECT_EQ(buf.writes, 1u);
}

TEST(ExportSinks, ReportsAFileThatCannotTakeTheBytes) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  ExportConfig config;
  config.perfetto_out = "/dev/full";
  ExportSinks sinks(config);
  for (const WindowExportView& view : fleet_views()) sinks.add_window(view);
  EXPECT_EQ(sinks.write_files(),
            std::vector<std::string>{"cannot write /dev/full"});
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

// --- golden bytes -----------------------------------------------------------
// XXH64 digests (and lengths) of every export document over the shared
// fleet, pinned from the string-concatenating exporters the append-in-place
// serializers replaced. A mismatch means an output byte changed: a number
// format, an escape, the event order or a separator. Only regenerate these
// for an intentional, documented format change.

struct Golden {
  std::size_t size;
  std::uint64_t xxh64;
};

void expect_golden(const std::string& doc, Golden golden) {
  EXPECT_EQ(doc.size(), golden.size);
  EXPECT_EQ(xxhash64(doc.data(), doc.size()), golden.xxh64)
      << std::hex << "actual xxh64 0x" << xxhash64(doc.data(), doc.size());
}

/// Quotes, backslashes, every escape with a short form, other C0 bytes,
/// DEL and UTF-8 (the last two pass through unescaped).
const std::string& hostile_name() {
  static const std::string name =
      std::string("t\"en\\ant\"\b\f\n\r\t") + '\0' +
      "\x01\x1f\x7f caf\xc3\xa9";
  return name;
}

// Moves every window begin below zero: negative timestamps in write_us and
// in the journal's time_ns, negative counter-bin origins.
constexpr DurationNs kNegativeShift = -(10 * kSecond + 123'457);
// Moves every counter-bin origin past the window's first flows, so those
// flows land in negative relative bins (the round-toward -inf branch).
constexpr DurationNs kLateOriginShift = 1'500'000'321;

TEST(ExportGoldenBytes, FleetDocuments) {
  expect_golden(perfetto_output(),
                {9'226'350, 0x0c4afdaaa462fbb0ULL});
  expect_golden(series_openmetrics(),
                {19'506, 0xb8a4923cb301e24dULL});
  expect_golden(series_jsonl(),
                {8'823, 0xc54c5759705d1c9dULL});
  expect_golden(journal_jsonl(),
                {967, 0xd233ae361639b5a5ULL});
}

TEST(ExportGoldenBytes, HostileJobName) {
  PerfettoOptions options;
  for (std::uint64_t id = 0; id < 3; ++id) {
    options.job_names[id] = hostile_name();
  }
  expect_golden(perfetto_output(options),
                {9'226'425, 0x6defbca2ea3a7138ULL});
}

TEST(ExportGoldenBytes, NegativeWindowBegin) {
  expect_golden(perfetto_output({}, kNegativeShift),
                {9'226'365, 0x617613d515b0881eULL});
  expect_golden(series_openmetrics(kNegativeShift),
                {19'662, 0xf1cc5c3d75488ffbULL});
  expect_golden(series_jsonl(kNegativeShift),
                {8'841, 0x53711b9d3887ca2dULL});
  expect_golden(journal_jsonl(kNegativeShift),
                {973, 0x967e03252796a5c2ULL});
  expect_golden(perfetto_output({}, kLateOriginShift),
                {9'226'455, 0x59176b6da2792c41ULL});
}

// --- golden report bytes ---------------------------------------------------
// XXH64 digests of write_report_json for one whole-trace analysis of the
// shared fleet, and of the same fleet with a fifth of its pairs degraded in
// collection and a slow leaf that raises a switch bandwidth alert. The
// per-switch bandwidths are order-sensitive floating-point sums, so these
// pin the cluster-wide stage's input order as well as the serializer. The
// digests must not depend on the thread count.

std::string report_json(const ClusterSimResult& sim, std::size_t threads,
                        std::size_t* bandwidth_alerts = nullptr) {
  PrismConfig config;
  config.num_threads = threads;
  const Prism prism(sim.topology, config);
  const PrismReport report = prism.analyze(sim.trace.view());
  if (bandwidth_alerts != nullptr) {
    *bandwidth_alerts = report.switch_bandwidth_alerts.size();
  }
  std::ostringstream os;
  write_report_json(os, report);
  return os.str();
}

TEST(ReportGoldenBytes, Fleet) {
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    expect_golden(report_json(fleet().sim, threads),
                  {1'262, 0x481b13410d88d2f5ULL});
  }
}

TEST(ReportGoldenBytes, DegradedFleetWithSlowLeaf) {
  ClusterSimConfig cfg = fleet_config();
  // One machine per leaf, so every DP ring crosses leaves and enough
  // switches carry DP traffic for the k-sigma rule to score them.
  cfg.topology.machines_per_leaf = 1;
  cfg.noise.degraded_pair_fraction = 0.2;
  cfg.switch_faults.push_back({.switch_id = SwitchId(0),
                               .window = {0, 2 * kHour},
                               .bandwidth_factor = 0.3});
  const ClusterSimResult sim = run_cluster_sim(cfg);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    std::size_t alerts = 0;
    const std::string json = report_json(sim, threads, &alerts);
    EXPECT_GT(alerts, 0u);
    expect_golden(json, {2'649, 0x51a36cfd1ac9a7a4ULL});
  }
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
  const PrismReport report = prism.analyze(sim.trace.view());
  const WindowExportView view{sim.trace.view().time_span(), &report, {}};

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
