// Descriptive statistics used by the diagnosis and identification layers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace llmprism::stats {

/// Arithmetic mean; 0 for an empty range.
[[nodiscard]] double mean(std::span<const double> xs);

/// Population variance (divides by n); 0 for fewer than 2 samples.
[[nodiscard]] double variance(std::span<const double> xs);

/// Population standard deviation.
[[nodiscard]] double stddev(std::span<const double> xs);

/// Mean absolute deviation around the mean.
[[nodiscard]] double mean_abs_deviation(std::span<const double> xs);

/// Median absolute deviation around the median (robust dispersion).
[[nodiscard]] double median_abs_deviation(std::span<const double> xs);

/// Median (average of middle two for even n); 0 for an empty range.
[[nodiscard]] double median(std::span<const double> xs);

/// p-th percentile with linear interpolation, p in [0, 100]. Found by
/// selection (O(n)), bit-identical to interpolating a fully sorted copy.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// Most frequent value of an integer sample; ties broken toward the smaller
/// value, 0 for an empty range. Used for Mode(N_k) in Alg. 2.
[[nodiscard]] std::int64_t mode(std::span<const std::int64_t> xs);

/// Streaming mean/variance accumulator (Welford's algorithm); numerically
/// stable for long-running online monitoring.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Population variance; 0 with fewer than 2 samples.
  [[nodiscard]] double variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
  }
  [[nodiscard]] double stddev() const;

  void reset() { *this = RunningStats{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace llmprism::stats
