#pragma once
// Shared plumbing of the fabric benchmark: run configuration, result
// records, the order statistics every metric is reported with, and the
// host clock.
//
// The benchmark is a closed loop of one caller on one thread: each
// workload issues its next call into the program only after the
// previous one returned.  Host time is read here with steady_clock
// around those calls, from the benchmark's own files -- the program is
// never instrumented for the benchmark's sake.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One benchmark invocation, as parsed from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured wall time of the run
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload measured and checked.
struct WorkloadResult {
  /// Metrics of the final JSON line, by name: the end-to-end set of
  /// BENCHMARK.json on untraced runs, its per-layer set on traced runs.
  std::map<std::string, double> values;
  /// The workload's own end-to-end table (every metric that applies to
  /// it, in its own terms), printed for people.
  std::vector<Metric> table;
  /// Text lines appended to the human report (percentile sample counts,
  /// the metrics-overhead verdict, the per-layer self-time table).
  std::vector<std::string> notes;
  /// One line per failed correctness gate; a run with any is wrong.
  std::vector<std::string> gate_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
};

// --- order statistics ------------------------------------------------

/// Nearest-rank percentile: the ceil(q * n)-th smallest sample (the
/// smallest for q == 0); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Median as Python's statistics.median computes it.
[[nodiscard]] double median(std::vector<double> samples);

/// First and third quartile as Python's statistics.quantiles(values,
/// n=4) computes them (its default "exclusive" method).  Needs at
/// least two samples; a single sample is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> samples);

/// Interquartile distance as a share of the median (0 when the median
/// is 0) -- the spread the benchmark's bounds are judged against.
[[nodiscard]] double relative_spread(const std::vector<double>& samples);

/// The highest of p50/p75/p90/p95/p99/p99.9 that leaves at least ten
/// samples beyond it under the nearest-rank rule, or 0 when even the
/// median does not (fewer than 20 samples).
[[nodiscard]] double highest_supported_quantile(std::size_t n);

/// "n=.. min/q1/median/q3/max .." of a sample scaled by `scale`, for
/// the human report.
[[nodiscard]] std::string describe(const std::vector<double>& samples,
                                   double scale, const char* unit);

// --- process ---------------------------------------------------------

/// Peak resident set size of this process so far (VmHWM), MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
