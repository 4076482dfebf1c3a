#include "llmprism/common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace llmprism::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double mean_abs_deviation(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += std::abs(x - m);
  return acc / static_cast<double>(xs.size());
}

double median_abs_deviation(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = median(xs);
  std::vector<double> deviations;
  deviations.reserve(xs.size());
  for (double x : xs) deviations.push_back(std::abs(x - m));
  return median(deviations);
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> values(xs.begin(), xs.end());
  p = std::clamp(p, 0.0, 100.0);
  const double idx = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const auto hi = static_cast<std::size_t>(std::ceil(idx));
  const double frac = idx - std::floor(idx);
  // Selection instead of a full sort: the lo-th order statistic, then the
  // hi-th (hi is lo or lo + 1) as the minimum of everything nth_element
  // left above it — the same two values a sorted copy would hold at lo and
  // hi, so the interpolation below is bit-identical.
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double lo_value = *lo_it;
  const double hi_value =
      hi == lo ? lo_value : *std::min_element(lo_it + 1, values.end());
  return lo_value + (hi_value - lo_value) * frac;
}

std::int64_t mode(std::span<const std::int64_t> xs) {
  if (xs.empty()) return 0;
  std::unordered_map<std::int64_t, std::size_t> counts;
  counts.reserve(xs.size());
  for (std::int64_t x : xs) ++counts[x];
  std::int64_t best = xs.front();
  std::size_t best_count = 0;
  for (const auto& [value, count] : counts) {
    if (count > best_count || (count == best_count && value < best)) {
      best = value;
      best_count = count;
    }
  }
  return best;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace llmprism::stats
