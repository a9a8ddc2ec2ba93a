#pragma once
// The four workloads and the correctness gates they share with the
// self-test.
//
// Every workload follows the same shape.  Set-up (topology, route
// compilation, traffic or protection) runs many times, spread over the
// run, and its fastest repetition is `setup_s`.  The untraced run
// spends its whole --seconds budget in the timed closed loop.  The
// traced run splits the budget two ways: calls alternating the
// TraceSink off and on (the untraced baseline, the per-layer breakdown
// and the tracing overhead, from equally many calls of each kind), and
// calls alternating a MetricRegistry off and on (the metrics overhead).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/runner.hpp"
#include "sim/report.hpp"
#include "support.hpp"

namespace perfbench {

/// Each workload measures end to end when `trace` is null; otherwise
/// it records its spans there and returns the per-layer metrics.
[[nodiscard]] WorkloadResult run_replay(const RunConfig& config,
                                        hp::obs::TraceSink* trace);
/// `closed_loop` picks sim_incast_closed over sim_open_fattree8.
[[nodiscard]] WorkloadResult run_sim(const RunConfig& config, bool closed_loop,
                                     hp::obs::TraceSink* trace);
[[nodiscard]] WorkloadResult run_churn(const RunConfig& config,
                                       hp::obs::TraceSink* trace);

/// Replays a small protected churn schedule twice, once skipping every
/// repair_pending: true when the route gate rejects the first and
/// passes the second.
[[nodiscard]] bool churn_gate_catches_dropped_repairs();

/// Runs the benchmark's self-test, printing one line per check;
/// returns the number of failed checks.
[[nodiscard]] int run_self_test();

// --- correctness gates -------------------------------------------------

/// Replay outputs: no wrong egress, no ttl kill, no drop, and every
/// stream packet forwarded.  Returns the failed-packet count.
std::uint64_t check_replay(const hp::scenario::ScenarioReport& report,
                           std::size_t stream_packets, WorkloadResult& out);

/// Simulated outputs: no wrong egress, and on a closed loop every flow
/// either completed or was abandoned.  Returns the wrong-egress count.
std::uint64_t check_sim(const hp::sim::SimReport& report,
                        WorkloadResult& out);

/// Router pairs the fabric's degraded topology still connects that
/// lack a cached route whose path is alive and whose labels forward to
/// the destination's egress port.  A pair whose route() had to be
/// compiled by this check lacked one, and counts.
[[nodiscard]] std::size_t unserved_pairs(hp::scenario::BuiltFabric& fabric);

// --- shared helpers --------------------------------------------------

/// Smallest sample: the repetition least disturbed by the host.
[[nodiscard]] double fastest(const std::vector<double>& samples);

/// `value` if finite, else 0 (ratios over empty samples).
[[nodiscard]] double finite_or_zero(double value);

/// Time one call of `fn` in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return seconds_between(start, Clock::now());
}

/// Call `prepare(i)` untimed, then `fn(i)` timed, for i = 0, 1, ...
/// until `seconds` of wall time have passed (at least `min_calls`
/// times); returns the seconds of each `fn` call.
template <typename Prepare, typename Fn>
std::vector<double> loop_for(double seconds, std::size_t min_calls,
                             Prepare&& prepare, Fn&& fn) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < min_calls ||
         seconds_between(start, Clock::now()) < seconds) {
    const std::size_t i = samples.size();
    prepare(i);
    samples.push_back(timed([&] { fn(i); }));
  }
  return samples;
}

template <typename Fn>
std::vector<double> loop_for(double seconds, std::size_t min_calls, Fn&& fn) {
  return loop_for(seconds, min_calls, [](std::size_t) {}, fn);
}

/// Host times of two kinds of call made equally often.
struct Paired {
  std::vector<double> a;
  std::vector<double> b;
};

/// Calls `prepare(i)` untimed, then times `a(i)` and `b(i)`, for
/// i = 0, 1, ... until `seconds` of wall time have passed (at least
/// `min_pairs` times): both kinds of call see the same host, and each
/// fastest-call estimate rests on the same number of calls.
template <typename Prepare, typename A, typename B>
Paired alternate(double seconds, std::size_t min_pairs, Prepare&& prepare,
                 A&& a, B&& b) {
  Paired out;
  const Clock::time_point start = Clock::now();
  while (out.a.size() < min_pairs ||
         seconds_between(start, Clock::now()) < seconds) {
    const std::size_t i = out.a.size();
    prepare(i);
    out.a.push_back(timed([&] { a(i); }));
    out.b.push_back(timed([&] { b(i); }));
  }
  return out;
}

template <typename A, typename B>
Paired alternate(double seconds, std::size_t min_pairs, A&& a, B&& b) {
  return alternate(seconds, min_pairs, [](std::size_t) {}, a, b);
}

/// Paces repeated set-ups: due() turns true once per `seconds / count`
/// of wall time, so about `count` set-ups spread evenly over a run
/// however long one call takes.
class Pacer {
 public:
  Pacer(double seconds, std::size_t count)
      : step_(seconds / static_cast<double>(count)), next_(step_) {}

  [[nodiscard]] bool due() {
    if (seconds_between(start_, Clock::now()) < next_) return false;
    next_ += step_;
    return true;
  }

 private:
  Clock::time_point start_ = Clock::now();
  double step_;
  double next_;
};

/// Shared ending of every workload's metrics-overhead phase: the
/// relative change in host time with a MetricRegistry attached, the
/// spread of the samples it rests on, what those samples are
/// (`basis`), and the verdict against the documented 2 % budget.
void report_metrics_overhead(double overhead, double spread,
                             const std::string& basis, WorkloadResult& out);

/// The same for calls repeating identical work: fastest call with a
/// registry against fastest without.
void report_metrics_overhead(const std::vector<double>& with_registry_s,
                             const std::vector<double>& without_s,
                             WorkloadResult& out);

/// Shared ending of every traced run: the per-layer self-time table of
/// the spans under the "bench.op" spans (one per timed call), averaged
/// over the calls, and `trace.overhead` from the host time of one call
/// with the spans and without (each workload's fastest-repetition
/// measure).  Fails the run when the self times do not partition the
/// calls.
void report_layers(const std::vector<hp::obs::TraceEvent>& events,
                   double untraced_op_s, double traced_op_s,
                   WorkloadResult& out);

}  // namespace perfbench
