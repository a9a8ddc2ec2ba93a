// Closed-loop transport tests.  The contracts under test:
//  - RTO semantics on a dead wire: exponential backoff doubling, the
//    rto_max cap, and max-retries abandonment (graceful degradation);
//  - delivery semantics on a healthy wire: the flow completes with no
//    retransmissions and full goodput;
//  - option validation (HP_CHECK contract violations);
//  - determinism through SimRunner: fixed seed => bit-identical
//    SimReport across runs and compile_threads, with retransmits and a
//    flap failure schedule active, and the liveness invariant
//    completed_flows + abandoned_flows == flows.

#include "sim/transport.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "netsim/topology.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "sim/packet_sim.hpp"
#include "sim/runner.hpp"

namespace scenario = hp::scenario;
namespace sim = hp::sim;

namespace {

constexpr std::uint64_t kPacketBytes = 1000;

/// Two routers, one duplex 100 Mbps / 0.01 ms link, wired into a
/// PacketSim exactly as SimRunner wires channels.  `wire_down` takes
/// both directions down at tick 0, so every injection is a silent
/// failover loss and only the RTO can recover.
struct Rig {
  scenario::BuiltFabric fabric;
  std::optional<sim::PacketSim> sim;
  sim::RouteEpoch epoch;       ///< base a->b route, from = 0
  std::uint32_t source = 0;    ///< fabric index of router a

  explicit Rig(bool wire_down) : fabric(make_topo()) {
    const auto& fast = fabric.compiled();
    const auto& topo = fabric.topology();
    const std::size_t n = fast.node_count();
    std::vector<std::uint32_t> node_offset(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      node_offset[i + 1] = node_offset[i] + fast.port_count(i);
    }
    std::vector<std::uint32_t> port_channel(node_offset[n],
                                            sim::PacketSim::kNoChannel);
    std::vector<sim::Channel> channels;
    for (std::size_t node = 0; node < n; ++node) {
      for (std::uint32_t port = 0; port < fast.port_count(node); ++port) {
        const std::uint32_t peer = fast.neighbor(node, port);
        if (peer == hp::polka::CompiledFabric::kNoNode) continue;
        const auto link = topo.link_between(fabric.topo_index(node),
                                            fabric.topo_index(peer));
        if (!link.has_value()) {
          throw std::logic_error("Rig: fabric wiring names a missing link");
        }
        const hp::netsim::Link& l = topo.link(*link);
        sim::Channel ch;
        ch.latency_ns = static_cast<sim::Tick>(
            std::llround(std::max(l.delay_ms, 0.0) * 1e6));
        const double bits = static_cast<double>(kPacketBytes) * 8.0;
        ch.serialize_ns =
            static_cast<sim::Tick>(std::llround(bits * 1000.0 /
                                                l.capacity_mbps));
        ch.queue_capacity = 16;
        ch.ecn_threshold = 0;  // marking off: these tests pin RTO/drop paths
        port_channel[node_offset[node] + port] =
            static_cast<std::uint32_t>(channels.size());
        channels.push_back(ch);
      }
    }
    const std::size_t channel_count = channels.size();
    sim.emplace(fast, std::move(channels), std::move(node_offset),
                std::move(port_channel), sim::SimConfig{});
    if (wire_down) {
      for (std::size_t ch = 0; ch < channel_count; ++ch) {
        sim->schedule_link_state(0, static_cast<std::uint32_t>(ch), false);
      }
    }
    const scenario::CompiledRoute* route = fabric.route(0, 1);
    if (route == nullptr) {
      throw std::logic_error("Rig: a->b route failed to compile");
    }
    epoch.from = 0;
    epoch.label = route->segments.labels.front();
    epoch.ref = {};  // one hop: single label, no pooled segments
    epoch.expected = route->expected;
    source = route->ingress;
  }

 private:
  static hp::netsim::Topology make_topo() {
    hp::netsim::Topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    topo.add_duplex_link(a, b, /*capacity_mbps=*/100.0, /*delay_ms=*/0.01);
    return topo;
  }
};

TEST(Transport, RtoBackoffDoublesCapsAndAbandons) {
  Rig rig(/*wire_down=*/true);
  sim::TransportOptions options;
  options.init_cwnd = 1;
  options.max_cwnd = 4;
  options.rto_min_ns = 1'000;
  options.rto_max_ns = 8'000;  // = rto_min * 2^3, so backoff hits the cap
  options.max_retries = 4;
  sim::Transport tp(*rig.sim, options, kPacketBytes, nullptr);
  const std::uint32_t lane = tp.add_lane({rig.epoch});
  (void)tp.add_flow(lane, rig.source, /*start=*/0, /*pace_ns=*/1,
                    /*packets=*/1);
  tp.arm();
  (void)rig.sim->run();

  const sim::Transport::FlowView view = tp.flow_view(0);
  EXPECT_TRUE(view.abandoned);
  EXPECT_FALSE(view.completed);
  EXPECT_EQ(view.delivered, 0u);
  // max_retries retransmissions burn max_retries + 1 timeouts: the
  // original send and each retry all time out before the give-up.
  EXPECT_EQ(view.timeouts, options.max_retries + 1);
  // Expiries at 1000, 3000, 7000, 15000, 23000: gaps 2000, 4000 double
  // from the rto_min base, then 8000, 8000 pin the rto_max cap.
  EXPECT_EQ(view.timeout_at,
            (std::vector<sim::Tick>{1'000, 3'000, 7'000, 15'000, 23'000}));

  const sim::TransportReport& report = tp.report();
  EXPECT_EQ(report.retransmits, options.max_retries);
  EXPECT_EQ(report.timeouts, options.max_retries + 1);
  EXPECT_EQ(report.abandoned_flows, 1u);
  EXPECT_EQ(report.goodput_bytes, 0u);
  EXPECT_EQ(report.offered_bytes, kPacketBytes);
  EXPECT_EQ(tp.completed_flows(), 0u);
}

TEST(Transport, HealthyWireCompletesWithoutRetransmission) {
  Rig rig(/*wire_down=*/false);
  sim::TransportOptions options;
  options.init_cwnd = 4;
  options.max_cwnd = 8;
  options.rto_min_ns = 1'000'000;  // far above the ~90 us path RTT
  sim::Transport tp(*rig.sim, options, kPacketBytes, nullptr);
  const std::uint32_t lane = tp.add_lane({rig.epoch});
  (void)tp.add_flow(lane, rig.source, /*start=*/0, /*pace_ns=*/100,
                    /*packets=*/8);
  tp.arm();
  (void)rig.sim->run();

  const sim::Transport::FlowView view = tp.flow_view(0);
  EXPECT_TRUE(view.completed);
  EXPECT_FALSE(view.abandoned);
  EXPECT_EQ(view.delivered, 8u);
  EXPECT_GT(view.fct_ns, 0u);
  EXPECT_EQ(view.timeouts, 0u);

  const sim::TransportReport& report = tp.report();
  EXPECT_EQ(report.packets_sent, 8u);
  EXPECT_EQ(report.retransmits, 0u);
  EXPECT_EQ(report.timeouts, 0u);
  EXPECT_EQ(report.goodput_bytes, 8 * kPacketBytes);
  EXPECT_EQ(report.goodput_bytes, report.offered_bytes);
  EXPECT_EQ(tp.completed_flows(), 1u);
}

TEST(Transport, ConstructorRejectsIncoherentOptions) {
  Rig rig(/*wire_down=*/false);
  const auto reject = [&](sim::TransportOptions options) {
    EXPECT_THROW(
        sim::Transport(*rig.sim, options, kPacketBytes, nullptr),
        hp::core::ContractViolation);
  };
  sim::TransportOptions options;
  options.init_cwnd = 0;
  reject(options);
  options = {};
  options.max_cwnd = options.init_cwnd - 1;
  reject(options);
  options = {};
  options.rto_min_ns = 0;
  reject(options);
  options = {};
  options.rto_max_ns = options.rto_min_ns - 1;
  reject(options);
  options = {};
  options.max_retries = 0;
  reject(options);
}

/// Incast knobs aggressive enough that the closed loop must retransmit
/// (shallow queues, fast sources piling onto one hot destination) on
/// top of a flapping-link failure schedule.
sim::SimOptions closed_loop_incast_options(const scenario::ScenarioSpec& spec) {
  sim::SimOptions options;
  options.source_rate_mbps = 400.0;
  options.flow_gap_ns = 10'000;
  options.queue_capacity = 16;
  options.ecn_threshold = 12;
  options.protection_k = 1;
  options.transport.enabled = true;
  options.transport.init_cwnd = 4;
  options.transport.max_cwnd = 32;
  // Above the queueing-dominated incast RTT, so timeouts mean real
  // silent loss (dead wires), not spurious expiry.
  options.transport.rto_min_ns = 4'000'000;
  options.transport.rto_max_ns = 50'000'000;
  options.transport.max_retries = 8;

  scenario::FailureInjectorParams failures;
  failures.preset = scenario::FailurePreset::kFlap;
  failures.seed = 17;
  failures.count = 2;
  failures.mean_up_fraction = 0.15;
  failures.mean_down_fraction = 0.05;
  options.failures = scenario::make_failure_schedule(
      scenario::build_topology(spec), failures);
  return options;
}

TEST(TransportRunner, FixedSeedBitIdenticalAcrossRunsAndThreadsUnderFlap) {
  const scenario::ScenarioSpec* base =
      scenario::find_scenario("torus4x4/hotspot");
  ASSERT_NE(base, nullptr);
  scenario::ScenarioSpec spec = *base;
  spec.traffic.pattern = scenario::TrafficPattern::kHotspot;
  spec.traffic.packets = 2048;
  spec.traffic.max_pairs = 64;
  spec.traffic.seed = 5;
  const sim::SimOptions options = closed_loop_incast_options(spec);

  const sim::SimReport first = sim::run_sim_scenario(spec, options);
  EXPECT_TRUE(first.transport.enabled);
  EXPECT_GT(first.transport.retransmits, 0u)
      << "incast + flap must force retransmissions for this test to bite";
  EXPECT_GT(first.transport.timeouts, 0u);
  // Liveness: every flow either delivered all its bytes or was
  // abandoned after max_retries -- nothing hangs in between.
  EXPECT_EQ(first.completed_flows + first.transport.abandoned_flows,
            first.flows);
  EXPECT_EQ(first.forwarding.wrong_egress, 0u);

  const sim::SimReport again = sim::run_sim_scenario(spec, options);
  EXPECT_EQ(first, again) << "same seed, same options: closed-loop report "
                             "must be bit-identical across runs";
  for (const unsigned threads : {2u, 4u}) {
    sim::SimOptions threaded = options;
    threaded.compile_threads = threads;
    const sim::SimReport report = sim::run_sim_scenario(spec, threaded);
    EXPECT_EQ(first, report)
        << "compile_threads=" << threads << " changed the closed-loop report";
  }
}

TEST(TransportRunner, OpenLoopGoodputIsDeliveredOverInjected) {
  // The open loop has no Transport, but its report still prices the
  // stream: offered = injected packets, goodput = delivered packets.
  const scenario::ScenarioSpec* base =
      scenario::find_scenario("torus4x4/hotspot");
  ASSERT_NE(base, nullptr);
  scenario::ScenarioSpec spec = *base;
  spec.traffic.packets = 4096;
  spec.traffic.max_pairs = 64;
  spec.traffic.seed = 5;
  sim::SimOptions options = closed_loop_incast_options(spec);
  options.transport.enabled = false;
  options.failures.clear();
  options.protection_k = 0;

  const sim::SimReport report = sim::run_sim_scenario(spec, options);
  EXPECT_FALSE(report.transport.enabled);
  EXPECT_EQ(report.transport.packets_sent, 0u);
  const std::size_t injected =
      report.forwarding.packets + report.forwarding.dropped_packets;
  const std::size_t delivered =
      report.forwarding.packets - report.forwarding.ttl_expired;
  EXPECT_EQ(injected, spec.traffic.packets);
  EXPECT_EQ(report.transport.offered_bytes, injected * options.packet_bytes);
  EXPECT_EQ(report.transport.goodput_bytes,
            delivered * options.packet_bytes);
  EXPECT_DOUBLE_EQ(report.goodput_fraction(),
                   static_cast<double>(delivered) /
                       static_cast<double>(injected));
  EXPECT_LT(report.goodput_fraction(), 1.0)
      << "the incast must drop packets for this test to bite";
  EXPECT_GT(report.goodput_fraction(), 0.0);
}

}  // namespace
