#include "support.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::ranges::sort(samples);
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::ranges::sort(samples);
  const std::size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> samples) {
  if (samples.empty()) return {};
  if (samples.size() == 1) return {samples[0], samples[0]};
  std::ranges::sort(samples);
  // statistics.quantiles(method="exclusive"), n = 4: cut point i sits
  // at position i * (len + 1) / 4, interpolated between neighbours,
  // with the index clamped to the sample as CPython does.
  const std::size_t len = samples.size();
  const std::size_t m = len + 1;
  auto cut = [&](std::size_t i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, len - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  };
  return {cut(1), cut(3)};
}

double relative_spread(const std::vector<double>& samples) {
  const double mid = median(samples);
  if (mid == 0.0) return 0.0;
  const Quartiles q = quartiles(samples);
  return (q.q3 - q.q1) / std::fabs(mid);
}

double highest_supported_quantile(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (n >= rank + 10) return q;
  }
  return 0.0;
}

std::string describe(const std::vector<double>& samples, double scale,
                     const char* unit) {
  if (samples.empty()) return "n=0";
  const Quartiles q = quartiles(samples);
  char text[200];
  std::snprintf(text, sizeof text,
                "n=%zu min %.4g q1 %.4g median %.4g q3 %.4g max %.4g %s",
                samples.size(), *std::ranges::min_element(samples) * scale,
                q.q1 * scale, median(samples) * scale, q.q3 * scale,
                *std::ranges::max_element(samples) * scale, unit);
  return text;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
