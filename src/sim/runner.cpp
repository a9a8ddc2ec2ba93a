#include "sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_bridge.hpp"
#include "obs/trace.hpp"
#include "scenario/timeline.hpp"

namespace hp::sim {

namespace {

/// Serialization delay of one packet on a link, in integer ns
/// (clamped to >= 1 so a zero/absurd capacity cannot stall time).
Tick serialize_ns(std::uint64_t packet_bytes, double capacity_mbps) {
  if (capacity_mbps <= 0.0) return 1;
  const double bits = static_cast<double>(packet_bytes) * 8.0;
  // capacity_mbps is bits per microsecond; scale to nanoseconds.
  const double ns = bits * 1000.0 / capacity_mbps;
  return ns < 1.0 ? 1 : static_cast<Tick>(std::llround(ns));
}

}  // namespace

SimReport SimRunner::run(scenario::BuiltFabric& fabric,
                         const scenario::PacketStream& stream) const {
  HP_CHECK(options_.queue_capacity > 0,
           "SimOptions: queue_capacity must be positive");
  HP_CHECK(options_.ecn_threshold <= options_.queue_capacity,
           "SimOptions: ecn_threshold beyond queue_capacity can never mark");
  const polka::CompiledFabric& fast = fabric.compiled();
  const netsim::Topology& topo = fabric.topology();
  const std::size_t n = fast.node_count();

  // Telemetry sampling needs gauges to read; when the caller asked for
  // a telemetry store but gave no registry, a private one supplies
  // them (its snapshot is simply never read).
  obs::MetricRegistry private_registry;
  const bool want_bridge =
      options_.telemetry != nullptr && options_.telemetry_period_ns > 0;
  obs::MetricRegistry* registry = options_.metrics != nullptr
                                      ? options_.metrics
                                      : (want_bridge ? &private_registry
                                                     : nullptr);
  std::optional<obs::TelemetryBridge> bridge;
  if (want_bridge) bridge.emplace(*registry, *options_.telemetry);

  // Phase timer: each emplace closes the previous phase's event and
  // opens the next (TraceScope records on destruction).
  std::optional<obs::TraceScope> phase;
  phase.emplace(options_.trace, "sim.wire", "sim");

  // --- wire the channels: one per directed router adjacency ----------
  std::vector<std::uint32_t> node_offset(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    node_offset[i + 1] = node_offset[i] + fast.port_count(i);
  }
  std::vector<std::uint32_t> port_channel(node_offset[n],
                                          PacketSim::kNoChannel);
  std::vector<Channel> channels;
  // Directed topology pair -> channel index, so the failure schedule
  // below can take the physical wire down at the right tick.
  std::unordered_map<std::uint64_t, std::uint32_t> channel_of;
  for (std::size_t node = 0; node < n; ++node) {
    for (std::uint32_t port = 0; port < fast.port_count(node); ++port) {
      const std::uint32_t peer = fast.neighbor(node, port);
      if (peer == polka::CompiledFabric::kNoNode) continue;
      const auto link = topo.link_between(fabric.topo_index(node),
                                          fabric.topo_index(peer));
      if (!link) {
        throw std::logic_error(
            "SimRunner: fabric wiring names a link the topology lacks");
      }
      const netsim::Link& l = topo.link(*link);
      Channel ch;
      ch.latency_ns =
          static_cast<Tick>(std::llround(std::max(l.delay_ms, 0.0) * 1e6));
      ch.serialize_ns = serialize_ns(options_.packet_bytes, l.capacity_mbps);
      ch.queue_capacity = options_.queue_capacity;
      ch.ecn_threshold = options_.ecn_threshold;
      channel_of.emplace(
          netsim::node_pair_key(fabric.topo_index(node),
                                fabric.topo_index(peer)),
          static_cast<std::uint32_t>(channels.size()));
      port_channel[node_offset[node] + port] =
          static_cast<std::uint32_t>(channels.size());
      channels.push_back(ch);
    }
  }

  SimConfig config;
  config.max_hops = options_.max_hops;
  config.metrics = registry;
  config.recorder = options_.recorder;
  config.telemetry = want_bridge ? &*bridge : nullptr;
  config.telemetry_period_ns = options_.telemetry_period_ns;
  PacketSim sim(fast, std::move(channels), std::move(node_offset),
                std::move(port_channel), std::move(config));

  phase.emplace(options_.trace, "sim.schedule", "sim");

  // --- pass 1: the unsplit injection schedule -------------------------
  // A flow is up to flow_packets consecutive packets of one pair (in
  // stream emission order); flow k starts k * flow_gap_ns after t = 0
  // and its source injects back-to-back at source_rate_mbps.  The
  // per-packet ticks are computed first and reused verbatim below, so
  // the failure schedule (whose fractions map onto the last injection
  // tick) cannot perturb packet timing -- a protected and an
  // unprotected run offer the exact same load.
  const Tick src_gap =
      serialize_ns(options_.packet_bytes, options_.source_rate_mbps);
  std::vector<Tick> inject_at(stream.size(), 0);
  Tick last_inject = 0;
  // The same flow boundaries, recorded for the closed-loop branch: the
  // transport opens one sender per pass-1 flow (same start tick, same
  // pacing) and lets the window -- not the schedule -- decide sends.
  struct FlowDef {
    std::uint32_t lane = 0;
    std::uint32_t source = 0;
    Tick start = 0;
    std::uint32_t packets = 0;
  };
  std::vector<FlowDef> flow_defs;
  {
    struct Cadence {
      std::size_t injected = 0;
      Tick next_inject = 0;
      std::size_t def = 0;  ///< index into flow_defs
    };
    std::unordered_map<std::uint32_t, Cadence> cadence;  // lane -> state
    std::size_t flow_count = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::uint32_t lane = stream.pair[i];
      auto it = cadence.find(lane);
      if (it == cadence.end() ||
          it->second.injected >= options_.flow_packets) {
        Cadence fresh;
        fresh.next_inject =
            static_cast<Tick>(flow_count) * options_.flow_gap_ns;
        fresh.def = flow_defs.size();
        flow_defs.push_back(
            {lane, stream.ingress[i], fresh.next_inject, 0});
        ++flow_count;
        it = cadence.insert_or_assign(lane, fresh).first;
      }
      inject_at[i] = it->second.next_inject;
      last_inject = std::max(last_inject, inject_at[i]);
      ++it->second.injected;
      it->second.next_inject += src_gap;
      ++flow_defs[it->second.def].packets;
    }
  }

  // --- play the failure schedule against the control plane ------------
  // One RouteTimeline, shared with replay, says what each lane adopts
  // at each link event.  Events take the physical wires down (or up) at
  // their tick; a lane adopts its new route one control-plane latency
  // later -- switchover_latency_ns for a hitless backup swap,
  // repair_latency_ns for a recompile.  Packets the source emits before
  // the adoption tick still carry the dead route and die at the wire:
  // that gap, times the offered rate, IS the packets-lost-per-failure
  // the reports compare.  A severed lane adopts nothing: its last route
  // dies at the wire until a later version revives it.
  const scenario::RouteTimeline timeline = scenario::build_route_timeline(
      fabric, stream, options_.failures, options_.protection_k);
  auto tick_of = [&](double at_fraction) {
    return static_cast<Tick>(
        std::llround(at_fraction * static_cast<double>(last_inject)));
  };
  for (const scenario::LinkFailure& event : timeline.events) {
    for (const std::uint64_t key : {netsim::node_pair_key(event.a, event.b),
                                    netsim::node_pair_key(event.b, event.a)}) {
      if (const auto it = channel_of.find(key); it != channel_of.end()) {
        sim.schedule_link_state(tick_of(event.at_fraction), it->second,
                                event.restore);
      }
    }
  }
  // Each lane's adopted routes by adoption tick (the two latencies can
  // interleave adoptions of successive events); no lists at all, and
  // no allocation, when nothing was adopted.
  std::vector<std::vector<RouteEpoch>> adopted(
      timeline.versions.empty() ? 0 : stream.pairs.size());
  for (const scenario::RouteVersion& v : timeline.versions) {
    if (v.kind == scenario::Adoption::kSevered) continue;
    const Tick latency = v.kind == scenario::Adoption::kSwap
                             ? options_.switchover_latency_ns
                             : options_.repair_latency_ns;
    adopted[v.lane].push_back(
        {tick_of(v.at_fraction) + latency, v.label, v.ref, v.expected});
  }
  for (auto& lane : adopted) {
    std::ranges::stable_sort(lane, {}, &RouteEpoch::from);
  }
  // The route a lane's packet carries before any adoption.
  auto base_epoch = [&](std::uint32_t lane, std::size_t packet) {
    return RouteEpoch{0, stream.labels[packet],
                      lane < stream.seg_refs.size() ? stream.seg_refs[lane]
                                                    : polka::SegmentRef{},
                      stream.pairs[lane].expected};
  };
  sim.set_segment_pool(
      timeline.seg_labels.empty() ? stream.seg_labels : timeline.seg_labels,
      timeline.seg_labels.empty() ? stream.seg_waypoints
                                  : timeline.seg_waypoints);

  std::optional<Transport> transport;
  if (options_.transport.enabled) {
    // --- closed loop: hand the flows to the transport ------------------
    // One transport lane per traffic pair, carrying the pair's route
    // timeline (base route at tick 0, then every adopted version);
    // sends resolve their epoch at the send tick, so a retransmit
    // issued after adoption carries the repaired label.
    transport.emplace(sim, options_.transport, options_.packet_bytes,
                      registry);
    constexpr auto kNoLane = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> base_label_at(stream.pairs.size(), kNoLane);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (base_label_at[stream.pair[i]] == kNoLane) {
        base_label_at[stream.pair[i]] = static_cast<std::uint32_t>(i);
      }
    }
    std::vector<std::uint32_t> tp_lane(stream.pairs.size(), kNoLane);
    for (std::uint32_t lane = 0; lane < stream.pairs.size(); ++lane) {
      if (base_label_at[lane] == kNoLane) continue;  // pair without packets
      std::vector<RouteEpoch> epochs{base_epoch(lane, base_label_at[lane])};
      if (!adopted.empty()) {
        epochs.insert(epochs.end(), adopted[lane].begin(),
                      adopted[lane].end());
      }
      tp_lane[lane] = transport->add_lane(std::move(epochs));
    }
    for (const FlowDef& def : flow_defs) {
      (void)transport->add_flow(tp_lane[def.lane], def.source, def.start,
                                src_gap, def.packets);
    }
    transport->arm();
  } else {
    // --- pass 2: register flows and inject ---------------------------
    // Identical to pass 1 except that a lane whose route version
    // changed (by adoption tick) force-opens a new flow: the new
    // route's hop count changes the delivery expectation, and a flow's
    // expectation is fixed at registration.  Forced flows keep the
    // lane's cadence, so the packet timing stays exactly pass 1's.
    auto version_of = [&](std::uint32_t lane, Tick at) -> const RouteEpoch* {
      const RouteEpoch* best = nullptr;
      if (adopted.empty()) return best;
      for (const RouteEpoch& epoch : adopted[lane]) {  // tiny per lane
        if (epoch.from <= at) best = &epoch;
      }
      return best;
    };
    struct OpenFlow {
      std::uint32_t handle = 0;
      std::size_t injected = 0;
      const RouteEpoch* version = nullptr;
    };
    std::unordered_map<std::uint32_t, OpenFlow> open;  // lane -> open flow
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::uint32_t lane = stream.pair[i];
      const Tick at = inject_at[i];
      const RouteEpoch* ver = version_of(lane, at);
      const RouteEpoch epoch = ver != nullptr ? *ver : base_epoch(lane, i);
      auto it = open.find(lane);
      if (it == open.end() || it->second.injected >= options_.flow_packets ||
          it->second.version != ver) {
        OpenFlow flow;
        flow.handle = sim.add_flow(epoch.expected);
        flow.version = ver;
        it = open.insert_or_assign(lane, flow).first;
      }
      sim.inject(at, epoch.label, epoch.ref, stream.ingress[i],
                 it->second.handle);
      ++it->second.injected;
    }
  }

  phase.emplace(options_.trace, "sim.simulate", "sim");
  const SimResult result = sim.run();
  phase.emplace(options_.trace, "sim.report", "sim");

  // --- shape the result into the report -------------------------------
  SimReport report;
  report.forwarding.fold_kernel = fast.kernel();
  report.forwarding.packets =
      result.counters.delivered + result.counters.ttl_expired;
  report.forwarding.mod_operations = result.counters.mod_operations;
  report.forwarding.wrong_egress = result.counters.wrong_egress;
  report.forwarding.dropped_packets = result.counters.dropped;
  report.forwarding.ttl_expired = result.counters.ttl_expired;
  report.forwarding.segmented_packets = result.counters.segmented_packets;
  report.forwarding.segment_swaps = result.counters.segment_swaps;
  const scenario::FailoverTotals& failover = timeline.totals;
  report.forwarding.rerouted_pairs = failover.rerouted_pairs;
  report.forwarding.backup_swapped_pairs = failover.backup_swapped_pairs;
  report.forwarding.failover_packets_lost = result.counters.failover_lost;
  report.forwarding.unroutable_pairs = failover.unroutable_pairs;
  report.forwarding.lazy_repaired_pairs = failover.lazy_repaired_pairs;
  report.forwarding.window_recompiles = failover.window_recompiles;
  report.duration_ns = result.counters.end_ns;
  // Simulated seconds (deterministic), not wall clock: see SimReport.
  report.forwarding.seconds = static_cast<double>(report.duration_ns) * 1e-9;
  report.ecn_marked = result.counters.ecn_marked;
  obs::Histogram* fct_hist =
      registry != nullptr ? &registry->histogram("sim.fct_ns") : nullptr;
  if (transport.has_value()) {
    // Engine FlowStats count per-epoch injections (retransmits
    // included), so the logical flow facts come from the transport:
    // a flow completes when every distinct sequence arrived, and its
    // FCT spans first send to last first-copy delivery.
    report.flows = transport->flow_count();
    report.completed_flows = transport->completed_flows();
    report.transport = transport->report();
    for (const Tick fct : transport->completed_fct_ns()) {
      report.fct_ns.push_back(fct);
      if (fct_hist != nullptr) fct_hist->record(fct);
    }
  } else {
    report.flows = result.flows.size();
    for (const FlowStat& flow : result.flows) {
      if (!flow.complete()) continue;
      ++report.completed_flows;
      report.fct_ns.push_back(flow.fct_ns());
      if (fct_hist != nullptr) fct_hist->record(flow.fct_ns());
    }
    // Open loop: every stream packet is offered exactly once, so each
    // delivery is a first copy.
    report.transport.offered_bytes =
        result.counters.injected * options_.packet_bytes;
    report.transport.goodput_bytes =
        result.counters.delivered * options_.packet_bytes;
  }
  if (registry != nullptr) {
    // Every sim.* counter is a field of the engine's result or of the
    // transport's report, copied here once: the engine may run more
    // than once, so it cannot write them itself.  All of it is
    // simulated-schedule derived, so it snapshots identically across
    // runs and thread counts.
    obs::MetricRegistry& reg = *registry;
    const SimCounters& c = result.counters;
    reg.counter("sim.injected").add(c.injected);
    reg.counter("sim.delivered").add(c.delivered);
    reg.counter("sim.tail_drops").add(c.dropped - c.failover_lost);
    reg.counter("sim.ttl_expired").add(c.ttl_expired);
    reg.counter("sim.ecn_marked").add(c.ecn_marked);
    reg.counter("sim.folds").add(c.mod_operations);
    reg.counter("sim.segment_swaps").add(c.segment_swaps);
    reg.counter("sim.wrong_egress").add(c.wrong_egress);
    reg.counter("sim.failover.packets_lost").add(c.failover_lost);
    reg.counter("sim.failover.link_events").add(c.link_events);
    for (std::size_t ch = 0; ch < result.links.size(); ++ch) {
      const LinkStat& link = result.links[ch];
      reg.counter(link_metric_name(ch, "drops"))
          .add(link.tail_drops + link.failover_drops);
      reg.counter(link_metric_name(ch, "ecn")).add(link.ecn_marks);
    }
    if (transport.has_value()) {
      const TransportReport& tp = report.transport;
      reg.counter("sim.tp.sent").add(tp.packets_sent);
      reg.counter("sim.tp.retransmits").add(tp.retransmits);
      reg.counter("sim.tp.timeouts").add(tp.timeouts);
      reg.counter("sim.tp.ecn_cuts").add(tp.ecn_cwnd_cuts);
      reg.counter("sim.tp.drop_cuts").add(tp.drop_cwnd_cuts);
      reg.counter("sim.tp.spurious").add(tp.spurious_deliveries);
      reg.counter("sim.tp.abandoned_flows").add(tp.abandoned_flows);
      reg.counter("sim.tp.completed_flows").add(report.completed_flows);
    }
    reg.counter("sim.flows").add(report.flows);
    reg.counter("sim.completed_flows").add(report.completed_flows);
    if (!options_.failures.empty() || options_.protection_k > 0) {
      reg.counter("sim.failover.swaps").add(failover.backup_swapped_pairs);
      reg.counter("sim.failover.lazy_repairs")
          .add(failover.lazy_repaired_pairs);
      reg.counter("sim.failover.unroutable_pairs")
          .add(failover.unroutable_pairs);
      reg.counter("sim.failover.window_recompiles")
          .add(failover.window_recompiles);
    }
  }
  double util_sum = 0.0;
  std::size_t util_links = 0;
  for (const LinkStat& link : result.links) {
    report.max_queue_depth =
        std::max(report.max_queue_depth, link.max_queue_depth);
    const double util = link.utilization(report.duration_ns);
    report.max_link_utilization = std::max(report.max_link_utilization, util);
    if (link.forwarded != 0 || link.tail_drops != 0) {
      util_sum += util;
      ++util_links;
    }
  }
  if (util_links != 0) {
    report.mean_link_utilization = util_sum / static_cast<double>(util_links);
  }
  return report;
}

SimReport run_sim_scenario(const scenario::ScenarioSpec& spec,
                           const SimOptions& options) {
  scenario::BuiltFabric fabric(scenario::build_topology(spec));
  fabric.set_observability(options.metrics, options.trace);
  // Precompile every route up front (sharded across compile_threads);
  // generate_traffic then reuses the cache instead of compiling lazily.
  fabric.compile_all_pairs(options.compile_threads);
  const scenario::PacketStream stream =
      scenario::generate_traffic(fabric, spec.traffic);
  return SimRunner(options).run(fabric, stream);
}

}  // namespace hp::sim
