#include "llmprism/export/config.hpp"

#include <fstream>
#include <utility>

#include "llmprism/obs/metrics.hpp"
#include "llmprism/obs/trace_span.hpp"

namespace llmprism {

std::vector<std::string> ExportConfig::validate() const {
  std::vector<std::string> errors;
  const std::pair<const char*, const std::string*> outs[] = {
      {"--perfetto-out", &perfetto_out}, {"--series-out", &series_out},
      {"--journal-out", &journal_out},   {"--metrics-out", &metrics_out},
      {"--trace-out", &trace_out},
  };
  for (std::size_t a = 0; a < std::size(outs); ++a) {
    if (outs[a].second->empty()) continue;
    for (std::size_t b = a + 1; b < std::size(outs); ++b) {
      if (*outs[a].second == *outs[b].second) {
        errors.push_back(std::string("export: ") + outs[a].first + " and " +
                         outs[b].first + " both write " + *outs[a].second);
      }
    }
  }
  return errors;
}

ExportSinks::ExportSinks(ExportConfig config) : config_(std::move(config)) {
  if (!config_.perfetto_out.empty()) perfetto_.emplace();
  if (!config_.series_out.empty()) series_.emplace();
  if (!config_.journal_out.empty()) journal_.emplace();
  if (!config_.trace_out.empty()) obs::TraceCollector::instance().enable();
}

void ExportSinks::add_window(const WindowExportView& view) {
  if (perfetto_) perfetto_->add_window(view);
  if (series_) series_->add_window(view);
  if (journal_) journal_->add_window(view);
}

std::vector<std::string> ExportSinks::write_files() {
  std::vector<std::string> errors;
  // A file that opened can still fail to take the bytes (a full disk,
  // /dev/full): the stream is flushed and checked after its writer.
  const auto write = [&](const std::string& path, auto&& writer) {
    std::ofstream out(path);
    if (out) {
      writer(out);
      out.flush();
    }
    if (!out) errors.push_back("cannot write " + path);
  };
  if (journal_) journal_->finish();
  if (perfetto_) {
    write(config_.perfetto_out,
          [&](std::ostream& os) { perfetto_->write(os); });
  }
  if (series_) {
    write(config_.series_out, [&](std::ostream& os) {
      if (config_.series_out.ends_with(".jsonl")) {
        series_->write_jsonl(os);
      } else {
        series_->write_openmetrics(os);
      }
    });
  }
  if (journal_) {
    write(config_.journal_out,
          [&](std::ostream& os) { journal_->write_jsonl(os); });
  }
  if (!config_.trace_out.empty()) {
    obs::TraceCollector::instance().disable();
    write(config_.trace_out, [&](std::ostream& os) {
      obs::TraceCollector::instance().write_chrome_trace(os);
    });
  }
  if (!config_.metrics_out.empty()) {
    write(config_.metrics_out, [&](std::ostream& os) {
      if (config_.metrics_out.ends_with(".json")) {
        obs::default_registry().write_json(os);
      } else {
        obs::default_registry().write_prometheus(os);
      }
    });
  }
  return errors;
}

}  // namespace llmprism
