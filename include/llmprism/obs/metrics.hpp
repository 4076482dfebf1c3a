// Self-telemetry: a thread-safe metrics registry for the analysis side.
//
// LLMPrism's pitch is *continuous* online diagnosis, which means the
// diagnoser itself must be observable in production: how many flows were
// routed vs. dropped, how much work BOCD did, whether the k-sigma
// detectors are evaluating or abstaining. Three metric kinds cover that:
//
//  * Counter   — monotonic event count (relaxed atomic; safe from any
//                thread, totals are scheduling-invariant because the same
//                events occur regardless of the fan-out width),
//  * Gauge     — a level that goes up and down (windows in flight, lag),
//  * Histogram — fixed-bucket latency/size distribution (cumulative
//                Prometheus bucket semantics).
//
// The Registry hands out stable references: metric objects live as long as
// the registry, so hot paths look a metric up once and cache the
// reference. Exports: Prometheus text exposition (scrape endpoint / file)
// and a JSON snapshot (SRE-platform ingestion).
//
// Naming scheme (see DESIGN.md, "Self-observability"): metrics are
// `llmprism_<area>_<what>[_<unit>]`, counters end in `_total`, and every
// wall-clock quantity lives ONLY here — never in a PrismReport, which must
// stay bit-identical across thread counts.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace llmprism::obs {

/// Monotonic event counter. inc() is wait-free and callable from any
/// thread; the count is exact (no sampling).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A level that can move both ways (lag, in-flight work, buffer depth).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with Prometheus semantics: `bounds` are the
/// ascending inclusive upper bounds of the finite buckets; an implicit
/// +Inf bucket catches the rest. observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  struct Snapshot {
    std::vector<double> bounds;          ///< finite upper bounds
    std::vector<std::uint64_t> counts;   ///< per-bucket (bounds.size() + 1)
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void reset() noexcept;

  /// Latency buckets from 100us to ~30s (for *_seconds histograms).
  [[nodiscard]] static std::vector<double> default_seconds_buckets();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds_.size() + 1
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> count_{0};
};

/// Prometheus-style quantile estimate from fixed buckets: find the bucket
/// containing rank q*count and interpolate linearly inside it (bucket
/// lower bound 0 for the first finite bucket). Observations in the +Inf
/// bucket clamp to the highest finite bound (the classic histogram_quantile
/// behaviour). Returns 0 for an empty snapshot; q is clamped to [0, 1].
/// This is the ONE summary path shared by the self-telemetry exposition
/// and the per-job fleet series (export/series.hpp).
[[nodiscard]] double histogram_quantile(const Histogram::Snapshot& snap,
                                        double q);

/// Thread-safe name -> metric registry. Registration is idempotent: the
/// first call with a name creates the metric, later calls return the same
/// object (help text of the first registration wins; re-registering a name
/// as a different kind throws). References stay valid for the registry's
/// lifetime, so callers cache them outside hot loops.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& help = "",
                       std::vector<double> bounds = {});

  /// Prometheus text exposition format (one scrape's worth).
  void write_prometheus(std::ostream& os) const;
  /// JSON snapshot: {"counters":{...},"gauges":{...},"histograms":{...}}.
  void write_json(std::ostream& os) const;

  /// Zero every metric (tests; metrics stay registered).
  void reset();

  [[nodiscard]] std::size_t size() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  /// std::map: export order is name-sorted, hence deterministic.
  std::map<std::string, Entry> entries_;
};

/// The process-wide registry the pipeline reports into.
Registry& default_registry();

/// Registry counters fed from the fields of one deterministic tally struct
/// (ReportTelemetry, SessionCounters, MonitorStats), so the struct stays
/// the only count of each event. Build one per table as a function-local
/// static: the counters are registered by the first publish.
template <typename Tally, typename Value = std::uint64_t>
class TallyCounters {
 public:
  struct Field {
    const char* name;
    const char* help;
    Value Tally::*member;
  };

  explicit TallyCounters(std::span<const Field> fields) : fields_(fields) {
    for (const Field& f : fields_) {
      counters_.push_back(&default_registry().counter(f.name, f.help));
    }
  }

  /// Add each field's growth since `published`, then copy the new values
  /// into `published` (its other members are left alone).
  void publish(const Tally& now, Tally& published) const {
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      const auto member = fields_[i].member;
      counters_[i]->inc(now.*member - published.*member);
      published.*member = now.*member;
    }
  }

 private:
  std::span<const Field> fields_;
  std::vector<Counter*> counters_;
};

/// RAII wall-clock timer: records elapsed seconds into a histogram on
/// destruction. Wall time never enters analysis results — only this
/// side-channel.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_.observe(std::chrono::duration<double>(elapsed).count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace llmprism::obs
