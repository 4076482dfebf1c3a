#include "common.hpp"

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace prismbench {

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(xs.size() - 1, static_cast<std::size_t>(rank) - 1);
  return xs[i];
}

double tail_quantile(std::size_t samples) {
  // Largest whole percentile p with at least ten samples strictly above
  // the nearest-rank p-th value: ceil(p/100 * n) <= n - 10.
  for (int p = 99; p > 50; --p) {
    const double rank = std::ceil(p / 100.0 * static_cast<double>(samples));
    if (rank <= static_cast<double>(samples) - 10.0) return p / 100.0;
  }
  return 0.5;
}

std::optional<std::uint64_t> json_uint(std::string_view text,
                                       std::string_view key,
                                       std::size_t from) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const std::size_t at = text.find(needle, from);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t digits = at + needle.size();
  if (digits >= text.size() || text[digits] < '0' || text[digits] > '9') {
    return std::nullopt;
  }
  return std::strtoull(std::string(text.substr(digits, 24)).c_str(), nullptr,
                       10);
}

void Metrics::add(Set set, const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({set, name, value, unit});
}

void Metrics::print_table(const std::string& title) const {
  static const char* kSetNames[] = {"end-to-end", "per-layer", "info"};
  std::printf("== %s ==\n", title.c_str());
  for (const Set set : {Set::kEndToEnd, Set::kPerLayer, Set::kInfo}) {
    bool header = false;
    for (const Entry& e : entries_) {
      if (e.set != set) continue;
      if (!header) {
        std::printf("  [%s]\n", kSetNames[static_cast<int>(set)]);
        header = true;
      }
      std::printf("    %-40s %16.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
}

std::string Metrics::json(Set set) const {
  std::string out = "{";
  bool first = true;
  for (const Entry& e : entries_) {
    if (e.set != set) continue;
    char value[64];
    // %.17g keeps every digit of the measured double.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    if (!first) out += ',';
    first = false;
    out += "\"" + e.name + "\":{\"value\":" + value + ",\"unit\":\"" + e.unit +
           "\"}";
  }
  return out + "}";
}

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(tracer), index_(tracer.spans_.size()),
      saved_parent_(tracer.current_) {
  Span span;
  span.name = std::move(name);
  span.id = static_cast<std::uint32_t>(index_ + 1);
  span.parent = tracer.current_;
  span.start_s = seconds_since(tracer.origin_);
  tracer.spans_.push_back(std::move(span));
  tracer.current_ = static_cast<std::uint32_t>(index_ + 1);
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[index_];
  span.dur_s = seconds_since(tracer_.origin_) - span.start_s;
  tracer_.current_ = saved_parent_;
}

double Tracer::busy(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.dur_s;
  }
  return total;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.dur_s);
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%u,\"parent\":%u}}",
                  s.start_s * 1e6, s.dur_s * 1e6, s.id, s.parent);
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\"," << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

Calibrator::Calibrator() : keys_(std::size_t{1} << 18) {}

double Calibrator::run() {
  const auto t0 = Clock::now();
  std::uint64_t state = 0x243f6a8885a308d3ULL;
  for (std::uint64_t& key : keys_) {
    // splitmix64: the same keys on every run.
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    key = z ^ (z >> 31);
  }
  std::sort(keys_.begin(), keys_.end());
  double sum = 0;
  for (const std::uint64_t key : keys_) {
    sum += std::log1p(static_cast<double>(key >> 40));
  }
  // Keeps the pass from being optimised away.
  volatile double sink = sum;
  (void)sink;
  return seconds_since(t0);
}

namespace {

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_kb("VmHWM") / 1024.0; }

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

EnvStamp env_stamp() {
  EnvStamp s;
  s.nproc = std::thread::hardware_concurrency();
  s.compiler = PRISMBENCH_COMPILER;
  s.build_type = PRISMBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  s.optimized = true;
#endif
#ifndef NDEBUG
  s.asserts_enabled = true;
#endif
  return s;
}

}  // namespace prismbench
