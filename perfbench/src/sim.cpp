// sim_open_fattree8 and sim_incast_closed: the event-driven simulator.
//
// sim_open_fattree8 replays uniform traffic on a k=8 fat-tree open loop
// at about 0.7 peak link utilization with no drops: the event queue,
// channels and the schedule pass run over mostly idle queues and the
// transport does no work, so it is the control for transport changes.
// sim_incast_closed runs the torus 4x4 hotspot incast with the
// closed-loop transport against full queues (timers, retransmits, ECN
// cuts), so a change that helps idle queues but hurts full ones shows.

#include <memory>
#include <optional>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "scenario/topologies.hpp"
#include "scenario/traffic.hpp"
#include "sim/runner.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sc = hp::scenario;
using hp::obs::TraceScope;
using hp::obs::TraceSink;

constexpr std::size_t kStreamPackets = 100'000;
/// Set-ups per run, repeated (untimed) between timed calls so that
/// their samples spread over the whole run.
constexpr std::size_t kSetups = 40;

struct Shape {
  const char* name;
  bool closed_loop;
  sc::TrafficParams traffic;
  hp::sim::SimOptions options;
};

Shape shape(bool closed_loop, std::uint64_t seed) {
  Shape s{closed_loop ? "sim_incast_closed" : "sim_open_fattree8",
          closed_loop,
          {},
          {}};
  s.traffic.packets = kStreamPackets;
  s.traffic.seed = seed;
  if (!closed_loop) {
    // Default timing: 100 Mbps sources, one 8-packet flow every 50 us.
    s.traffic.pattern = sc::TrafficPattern::kUniformRandom;
    return s;
  }
  // The incast of bench_sim_transport (shallow queues, 400 Mbps sources
  // onto one hot router, RTO floor above the queueing RTT), at a flow
  // gap where every flow completes under steady congestion.
  s.traffic.pattern = sc::TrafficPattern::kHotspot;
  s.traffic.max_pairs = 64;
  hp::sim::SimOptions& o = s.options;
  o.source_rate_mbps = 400.0;
  o.flow_gap_ns = 400'000;
  o.queue_capacity = 16;
  o.ecn_threshold = 12;
  o.transport.enabled = true;
  o.transport.init_cwnd = 4;
  o.transport.max_cwnd = 32;
  o.transport.rto_min_ns = 4'000'000;
  o.transport.rto_max_ns = 50'000'000;
  o.transport.max_retries = 8;
  return s;
}

struct Sim {
  std::unique_ptr<sc::BuiltFabric> fabric;
  sc::PacketStream stream;
  double setup_s = 0.0;
  double compile_s = 0.0;
  double traffic_s = 0.0;
  std::size_t routes = 0;
  std::size_t crt_steps = 0;
};

Sim set_up(const Shape& s, TraceSink* sink) {
  Sim r;
  const Clock::time_point start = Clock::now();
  TraceScope root(sink, "bench.setup", "bench");
  {
    TraceScope span(sink, "scenario.fabric_builder.build", "bench");
    r.fabric = std::make_unique<sc::BuiltFabric>(
        s.closed_loop ? sc::make_torus(4, 4) : sc::make_fat_tree(8));
  }
  r.fabric->set_observability(nullptr, sink);
  r.compile_s = timed([&] {
    TraceScope span(sink, "scenario.fabric_builder.compile_all_pairs",
                    "bench");
    r.routes = r.fabric->compile_all_pairs(1);
  });
  r.crt_steps = r.fabric->compile_stats().crt_steps;
  r.traffic_s = timed([&] {
    TraceScope span(sink, "scenario.traffic.generate_traffic", "bench");
    r.stream = sc::generate_traffic(*r.fabric, s.traffic);
  });
  {
    TraceScope span(sink, "polka.compiled_fabric.build", "bench");
    (void)r.fabric->compiled();
  }
  r.fabric->set_observability(nullptr, nullptr);
  r.setup_s = seconds_between(start, Clock::now());
  return r;
}

hp::sim::SimReport simulate_once(const Shape& s, Sim& r, TraceSink* sink,
                                 hp::obs::MetricRegistry* metrics) {
  hp::sim::SimOptions options = s.options;
  options.trace = sink;
  options.metrics = metrics;
  r.fabric->set_observability(metrics, sink);
  TraceScope op(sink, "bench.op", "bench");
  TraceScope call(sink, "sim.runner.run", "bench");
  return hp::sim::SimRunner(options).run(*r.fabric, r.stream);
}

/// Packets that entered the fabric: delivered or ttl-killed, tail
/// dropped, or lost on a dead wire.
double injected(const hp::sim::SimReport& report) {
  const auto& f = report.forwarding;
  return static_cast<double>(f.packets + f.dropped_packets +
                             f.failover_packets_lost);
}

}  // namespace

WorkloadResult run_sim(const RunConfig& config, bool closed_loop,
                       TraceSink* trace) {
  WorkloadResult out;
  const Shape s = shape(closed_loop, config.seed);

  std::vector<double> setup_s;
  std::vector<double> compile_s;
  std::vector<double> traffic_s;
  Sim r;
  auto set_up_again = [&](TraceSink* sink) {
    r = Sim{};  // release the previous set-up before building anew
    r = set_up(s, sink);
    setup_s.push_back(r.setup_s);
    compile_s.push_back(r.compile_s);
    traffic_s.push_back(r.traffic_s);
  };
  set_up_again(trace);
  const double packets = static_cast<double>(r.stream.size());

  std::optional<hp::sim::SimReport> first;
  auto check = [&](const hp::sim::SimReport& report) {
    out.attempted += static_cast<std::uint64_t>(injected(report));
    out.failed += check_sim(report, out);
    if (!first) first = report;
    // Covers traced against untraced and registry against none too:
    // observation must never perturb the model.
    out.gate(report == *first,
             "simulation report differs between identical calls");
  };

  // The closed loop: untraced calls give the end-to-end numbers.  A
  // traced run alternates them with calls recording spans (program
  // phases nested), the per-layer breakdown and the tracing overhead.
  const double loop_s =
      trace != nullptr ? config.seconds * 0.7 : config.seconds;
  Pacer setups(loop_s, kSetups);
  auto prepare = [&](auto) {
    if (setups.due()) set_up_again(nullptr);
  };
  auto untraced_call = [&](auto) {
    check(simulate_once(s, r, nullptr, nullptr));
  };
  std::vector<double> calls;
  std::vector<double> traced;
  if (trace == nullptr) {
    calls = loop_for(loop_s, 3, prepare, untraced_call);
  } else {
    TraceScope root(trace, "bench.measure", "bench");
    Paired p = alternate(loop_s, 3, prepare, untraced_call, [&](auto) {
      check(simulate_once(s, r, trace, nullptr));
    });
    calls = std::move(p.a);
    traced = std::move(p.b);
  }
  const hp::sim::SimReport& rep = *first;
  out.table.push_back({"setup_s", fastest(setup_s), "s"});
  out.table.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
  out.table.push_back(
      {"fail_frac",
       finite_or_zero(static_cast<double>(rep.forwarding.wrong_egress) /
                      injected(rep)),
       "ratio"});
  // Every call repeats the same work: the fastest is its cost with the
  // least interference from the rest of the host.
  const double best_s = fastest(calls);
  out.table.push_back({"sim_kpps", packets / best_s / 1e3, "kpkt/s"});
  out.table.push_back(
      {"sim_fct_p50_us", static_cast<double>(rep.fct_p50_ns()) / 1e3, "us"});
  out.table.push_back(
      {"sim_fct_p95_us", static_cast<double>(rep.fct_p95_ns()) / 1e3, "us"});
  out.table.push_back({"sim_drop_rate", rep.drop_rate(), "ratio"});
  out.table.push_back({"sim_max_link_util", rep.max_link_utilization, "ratio"});
  if (closed_loop) {
    out.table.push_back({"sim_goodput_frac", rep.goodput_fraction(), "ratio"});
  }
  out.notes.push_back("set-up: " + describe(setup_s, 1e3, "ms"));
  out.notes.push_back("simulate call of " + std::to_string(r.stream.size()) +
                      " packets: " + describe(calls, 1e3, "ms"));
  out.notes.push_back(
      "flows: " + std::to_string(rep.flows) + " offered, " +
      std::to_string(rep.completed_flows) + " completed, " +
      std::to_string(rep.transport.abandoned_flows) + " abandoned");
  if (!closed_loop && rep.forwarding.dropped_packets != 0) {
    // Not a wrong output, but this workload is meant to run its queues
    // idle; with drops it no longer is the control it is described as.
    out.notes.push_back("WARNING: " +
                        std::to_string(rep.forwarding.dropped_packets) +
                        " tail drops on the open loop, which should have none");
  }

  if (trace == nullptr) {
    out.values["setup_s"] = fastest(setup_s);
    out.values["peak_rss_mb"] = peak_rss_mib();
    out.values["ops_per_s"] = packets / best_s;
    return out;
  }

  hp::obs::MetricRegistry registry;
  const Paired registry_calls = alternate(
      config.seconds * 0.3, 3, untraced_call,
      [&](auto) { check(simulate_once(s, r, nullptr, &registry)); });
  report_metrics_overhead(registry_calls.b, registry_calls.a, out);
  std::vector<double> export_ms;
  for (int i = 0; i < 5; ++i) {
    export_ms.push_back(1e3 * timed([&] {
                          TraceScope span(trace, "obs.to_json", "bench");
                          const std::string json = hp::obs::to_json(rep);
                          out.gate(!json.empty(), "empty report export");
                        }));
  }
  r.fabric->set_observability(nullptr, nullptr);

  const std::vector<hp::obs::TraceEvent> events = trace->events();
  const double schedule_s = median(span_durations(events, "sim.schedule"));
  const double simulate_s = median(span_durations(events, "sim.simulate"));
  const auto& tp = rep.transport;
  auto& v = out.values;
  v["compile.all_pairs_s"] = fastest(compile_s);
  v["compile.ns_per_route"] =
      fastest(compile_s) * 1e9 / static_cast<double>(r.routes);
  v["compile.crt_steps"] = static_cast<double>(r.crt_steps);
  v["traffic.generate_s"] = fastest(traffic_s);
  v["traffic.ns_per_packet"] = fastest(traffic_s) * 1e9 / packets;
  v["sim.schedule_s"] = schedule_s;
  v["sim.schedule_ns_per_packet"] = schedule_s * 1e9 / packets;
  v["sim.report_s"] = median(span_durations(events, "sim.report"));
  v["sim.simulate_s"] = simulate_s;
  v["sim.simulate_ns_per_hop"] = finite_or_zero(
      simulate_s * 1e9 / static_cast<double>(rep.forwarding.mod_operations));
  v["sim.max_queue_depth"] = rep.max_queue_depth;
  v["sim.tail_drops"] = static_cast<double>(rep.forwarding.dropped_packets);
  v["sim.ecn_marked"] = static_cast<double>(rep.ecn_marked);
  v["tp.sent"] = static_cast<double>(tp.packets_sent);
  v["tp.retransmits"] = static_cast<double>(tp.retransmits);
  v["tp.timeouts"] = static_cast<double>(tp.timeouts);
  v["tp.spurious"] = static_cast<double>(tp.spurious_deliveries);
  v["tp.ecn_cuts"] = static_cast<double>(tp.ecn_cwnd_cuts);
  // First copies delivered over every transmission.
  v["tp.useful_frac"] =
      finite_or_zero(static_cast<double>(tp.goodput_bytes) /
                     static_cast<double>(s.options.packet_bytes) /
                     static_cast<double>(tp.packets_sent));
  v["obs.export_ms"] = median(export_ms);
  report_layers(events, best_s, fastest(traced), out);
  return out;
}

}  // namespace perfbench
