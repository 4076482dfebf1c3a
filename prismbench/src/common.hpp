// Shared plumbing of the benchmark: clocks, sample statistics, the metric
// sink that prints the result line, the in-memory span tracer of the traced
// run, and process memory probes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace prismbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> xs, double q);
[[nodiscard]] inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 0.5);
}

/// The highest whole percentile that still has at least ten samples above
/// it (the tail the sample size can support). Returns the percentile as a
/// fraction in (0, 1); 0.5 when the sample is too small for a tail.
[[nodiscard]] double tail_quantile(std::size_t samples);

/// The unsigned integer after the first `"key":` at or after `from` in a
/// JSON text the program emitted; nullopt when absent or not a number.
[[nodiscard]] std::optional<std::uint64_t> json_uint(std::string_view text,
                                                     std::string_view key,
                                                     std::size_t from = 0);

/// Ordered metric sink. Every metric has a unit and belongs to the
/// end-to-end set, the per-layer set, or neither (printed only).
class Metrics {
 public:
  enum class Set { kEndToEnd, kPerLayer, kInfo };

  void add(Set set, const std::string& name, double value,
           const std::string& unit);
  void e2e(const std::string& name, double value, const std::string& unit) {
    add(Set::kEndToEnd, name, value, unit);
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    add(Set::kPerLayer, name, value, unit);
  }
  void info(const std::string& name, double value, const std::string& unit) {
    add(Set::kInfo, name, value, unit);
  }

  /// Human-readable table (every metric, grouped by set) on stdout.
  void print_table(const std::string& title) const;
  /// The JSON object of one set: {"name":{"value":v,"unit":"u"},...}.
  [[nodiscard]] std::string json(Set set) const;

 private:
  struct Entry {
    Set set;
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// In-memory span recorder for the traced run: every span is kept until
/// exit and written as Chrome trace_event JSON; busy time per name is the
/// sum of its span durations.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    double start_s = 0;        ///< since the tracer was created
    double dur_s = 0;
  };

  /// RAII scope: records [construction, destruction) under `name`.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
    std::uint32_t saved_parent_;
  };

  /// Summed duration of every span named `name`.
  [[nodiscard]] double busy(const std::string& name) const;
  /// Durations of every span named `name`, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Write {"traceEvents":[...]} to `path`; false when it cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::uint32_t current_ = 0;  ///< id of the innermost open span
};

/// Host-speed calibration. On a shared host the speed of the same code
/// drifts by tens of percent within minutes, far more than a regression
/// bound. Each gated timing is therefore taken right after one run of a
/// fixed CPU kernel (sort 256 Ki 64-bit keys, then a log1p pass over them)
/// on the same thread, and reported at the reference speed: the measured
/// seconds times kReferenceS over the kernel's seconds. A change to LLMPrism
/// moves the measured time and never the kernel's.
class Calibrator {
 public:
  /// The kernel's time on the reference host; a reported time equals the
  /// wall time when the kernel ran in exactly this long.
  static constexpr double kReferenceS = 0.025;

  Calibrator();
  /// Run the kernel once and return its wall time in seconds.
  double run();
  /// `seconds` measured right after a kernel run of `kernel_s`, at the
  /// reference speed.
  [[nodiscard]] static double at_reference(double seconds, double kernel_s) {
    return seconds * kReferenceS / kernel_s;
  }

 private:
  std::vector<std::uint64_t> keys_;
};

/// Peak resident set (VmHWM) of this process in MiB; 0 when unavailable.
[[nodiscard]] double peak_rss_mb();
/// Reset VmHWM to the current RSS (Linux clear_refs "5"), after handing
/// freed heap back to the kernel. False when the kernel refuses.
bool reset_peak_rss();

/// Build and host facts printed with every run.
struct EnvStamp {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  bool optimized = false;
  bool asserts_enabled = false;
};
[[nodiscard]] EnvStamp env_stamp();

}  // namespace prismbench
