#include "gbis/harness/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace gbis {

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;

  double sum = 0.0;
  s.min = values.front();
  s.max = values.front();
  for (double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(values.size());

  if (values.size() > 1) {
    double ss = 0.0;
    for (double v : values) ss += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(values.size() - 1));
  }

  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  s.median = sorted.size() % 2 == 1
                 ? sorted[mid]
                 : 0.5 * (sorted[mid - 1] + sorted[mid]);
  return s;
}

double percentile(std::span<const double> values, double p) {
  if (values.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double percent_improvement(double before, double after) {
  if (before == 0.0) {
    // A zero baseline has no meaningful percentage. Both zero means
    // "nothing to improve" (0%); otherwise return NaN rather than a
    // fake 0% that would mask a regression from a zero-cut baseline
    // (disconnected instances). The table printer renders NaN as "n/a".
    return after == 0.0 ? 0.0 : std::numeric_limits<double>::quiet_NaN();
  }
  return (before - after) / before * 100.0;
}

}  // namespace gbis
