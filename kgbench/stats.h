// Sample statistics for the benchmark: quantiles over latency samples and
// a tail percentile that refuses to report a tail the sample cannot
// support.  Header-only and free of library dependencies so the self-test
// builds without the KGModel sources.

#ifndef KGBENCH_STATS_H_
#define KGBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

namespace kgbench {

// Linear-interpolation quantile (q in [0, 1]) of the samples; NaN when
// empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

// Samples strictly above the `percent`-th percentile of `n` samples:
// n - ceil(percent * n / 100), in integer arithmetic so that p99 of
// exactly 1000 samples has exactly 10 beyond it.
inline size_t SamplesBeyond(size_t n, unsigned percent) {
  const size_t at = (static_cast<size_t>(percent) * n + 99) / 100;
  return n > at ? n - at : 0;
}

// A tail percentile is reported only with this many samples beyond it.
constexpr size_t kMinBeyond = 10;

// The `percent`-th percentile, or nullopt when fewer than kMinBeyond
// samples lie beyond it: a p99 needs at least 1000 samples, a p95 at
// least 200.  Percentiles at or below the median are never refused.
inline std::optional<double> TailPercentile(const std::vector<double>& v,
                                            unsigned percent) {
  if (v.empty()) return std::nullopt;
  if (percent > 50 && SamplesBeyond(v.size(), percent) < kMinBeyond) {
    return std::nullopt;
  }
  return Quantile(v, percent / 100.0);
}

}  // namespace kgbench

#endif  // KGBENCH_STATS_H_
