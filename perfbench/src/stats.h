#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/value.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Percentile by linear interpolation between closest ranks (the default of
// numpy and of Python's statistics.quantiles(method="inclusive")). 0 for an
// empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

inline double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// Geometric mean of strictly positive values; 0 for an empty sample.
inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// Result equality for the correctness check. Integers and strings must match
// exactly; doubles within 1e-9 relative, because spilled aggregation and the
// post-checkpoint merge order reorder floating-point sums.
inline bool RowsMatch(const std::vector<std::vector<vwise::Value>>& a,
                      const std::vector<std::vector<vwise::Value>>& b) {
  using vwise::Value;
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); c++) {
      const Value& x = a[i][c];
      const Value& y = b[i][c];
      if (x.kind() == Value::Kind::kDouble &&
          y.kind() == Value::Kind::kDouble) {
        double dx = x.AsDouble(), dy = y.AsDouble();
        double scale = std::max({std::fabs(dx), std::fabs(dy), 1.0});
        if (std::fabs(dx - dy) > 1e-9 * scale) return false;
      } else if (!(x == y)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
