// Correctness gates and the report endings every workload shares.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "polka/fastpath.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t check_replay(const hp::scenario::ScenarioReport& report,
                           std::size_t stream_packets, WorkloadResult& out) {
  out.gate(report.wrong_egress == 0, "replay: wrong egress");
  out.gate(report.ttl_expired == 0, "replay: ttl expired");
  out.gate(report.dropped_packets == 0, "replay: dropped packets");
  out.gate(report.packets == stream_packets,
           "replay: forwarded packets != stream size");
  return report.wrong_egress + report.ttl_expired + report.dropped_packets;
}

std::uint64_t check_sim(const hp::sim::SimReport& report,
                        WorkloadResult& out) {
  out.gate(report.forwarding.wrong_egress == 0, "sim: wrong egress");
  if (report.transport.enabled) {
    out.gate(report.completed_flows + report.transport.abandoned_flows ==
                 report.flows,
             "sim: completed + abandoned flows != flows");
  }
  return report.forwarding.wrong_egress;
}

std::size_t unserved_pairs(hp::scenario::BuiltFabric& fabric) {
  const hp::netsim::Topology& topo = fabric.topology();
  std::vector<char> down(topo.link_count(), 0);
  for (const hp::netsim::LinkIndex l : fabric.failed_links()) down[l] = 1;

  // Connected components of the degraded topology (union-find).
  std::vector<std::size_t> parent(topo.node_count());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    if (down[l] != 0) continue;
    parent[find(topo.link(l).from)] = find(topo.link(l).to);
  }

  const hp::polka::CompiledFabric& fast = fabric.compiled();
  std::size_t unserved = 0;
  for (const hp::netsim::NodeIndex src : fabric.routers()) {
    for (const hp::netsim::NodeIndex dst : fabric.routers()) {
      if (src == dst || find(src) != find(dst)) continue;
      const std::size_t compiled_before =
          fabric.compile_stats().routes_compiled;
      const hp::scenario::CompiledRoute* route = fabric.route(src, dst);
      bool ok = route != nullptr &&
                fabric.compile_stats().routes_compiled == compiled_before &&
                !route->path.empty() &&
                topo.link(route->path.front()).from == src &&
                topo.link(route->path.back()).to == dst;
      if (ok) {
        for (const hp::netsim::LinkIndex l : route->path) ok = ok && !down[l];
        const hp::polka::PacketResult walk = fast.forward_segmented(
            route->segments.labels, route->segments.waypoints, route->ingress);
        const std::size_t egress = fabric.fabric_index(dst);
        ok = ok && !walk.ttl_expired && walk.egress_node == egress &&
             walk.egress_port == fabric.egress_port(egress);
      }
      if (!ok) ++unserved;
    }
  }
  return unserved;
}

double fastest(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : *std::ranges::min_element(samples);
}

double finite_or_zero(double value) {
  return std::isfinite(value) ? value : 0.0;
}

void report_metrics_overhead(double overhead, double spread,
                             const std::string& basis, WorkloadResult& out) {
  constexpr double kBudget = 0.02;  // docs/OBSERVABILITY.md
  out.values["obs.metrics_overhead"] = overhead;
  out.values["obs.metrics_overhead_spread"] = spread;
  // Attaching a registry only adds work, so a reading below -budget is
  // interference the spread did not capture: the budget is not
  // resolved either way.
  const bool resolved = spread <= kBudget && overhead >= -kBudget;
  const char* verdict = !resolved             ? "unresolved"
                        : overhead <= kBudget ? "within budget"
                                              : "over budget";
  char line[240];
  std::snprintf(line, sizeof line,
                "metrics overhead: %+.2f %% (%s; spread %.2f %%): %s (budget "
                "2 %%)",
                overhead * 100.0, basis.c_str(), spread * 100.0, verdict);
  out.notes.emplace_back(line);
}

void report_metrics_overhead(const std::vector<double>& with_registry_s,
                             const std::vector<double>& without_s,
                             WorkloadResult& out) {
  // Fastest call against fastest call, like every host time here.  The
  // spread is how far the fastest call without a registry moves between
  // the two interleaved halves of those calls.
  std::vector<double> halves[2];
  for (std::size_t i = 0; i < without_s.size(); ++i) {
    halves[i % 2].push_back(without_s[i]);
  }
  const double base = fastest(without_s);
  report_metrics_overhead(
      fastest(with_registry_s) / base - 1.0,
      std::fabs(fastest(halves[0]) - fastest(halves[1])) / base,
      "fastest of " + std::to_string(with_registry_s.size()) +
          " calls with a registry against fastest of " +
          std::to_string(without_s.size()) + " without",
      out);
}

void report_layers(const std::vector<hp::obs::TraceEvent>& events,
                   double untraced_op_s, double traced_op_s,
                   WorkloadResult& out) {
  const double n =
      static_cast<double>(span_durations(events, "bench.op").size());
  const double op_s = span_seconds(events, "bench.op") / n;
  double self_sum_s = 0.0;
  double spans_per_op = 0.0;
  char line[240];
  out.notes.emplace_back("per-layer self time per timed call (traced):");
  for (const LayerTime& row : self_times(events, "bench.op")) {
    self_sum_s += row.self_s / n;
    spans_per_op += static_cast<double>(row.spans) / n;
    std::snprintf(line, sizeof line, "  %-28s %12.4f ms %6.1f %%",
                  row.layer.c_str(), row.self_s / n * 1e3,
                  100.0 * row.self_s / n / op_s);
    out.notes.emplace_back(line);
  }
  const double overhead = traced_op_s / untraced_op_s - 1.0;
  out.values["trace.overhead"] = overhead;
  // The self times partition the traced call (up to the 1 us
  // truncation of each span), and the traced call is the untraced one
  // plus the tracing overhead: together they account for the untraced
  // time.
  const bool partition = std::fabs(self_sum_s - op_s) <= 1e-6 * spans_per_op;
  std::snprintf(line, sizeof line,
                "  self times sum to %.4f ms of a %.4f ms traced call "
                "(partition %s); fastest call traced %.4f ms, untraced "
                "%.4f ms: tracing overhead %+.2f %%",
                self_sum_s * 1e3, op_s * 1e3, partition ? "holds" : "BROKEN",
                traced_op_s * 1e3, untraced_op_s * 1e3, overhead * 100.0);
  out.notes.emplace_back(line);
  out.gate(partition, "span self times do not partition the timed calls");
}

}  // namespace perfbench
