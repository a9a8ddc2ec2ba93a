#include "sim/report.hpp"

#include <algorithm>
#include <cmath>

namespace hp::sim {

Tick SimReport::fct_percentile_ns(double q) const {
  if (fct_ns.empty()) return 0;
  std::vector<Tick> sorted(fct_ns);
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: the ceil(q * n)-th order statistic, clamped to
  // [1, n] (same rule as netsim::collect_fct's p95 -- floor-indexing
  // selects one statistic too high).
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

}  // namespace hp::sim
