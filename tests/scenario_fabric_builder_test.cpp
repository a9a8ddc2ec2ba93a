// FabricBuilder: router-subgraph wiring, route compilation against the
// topology's shortest paths, and link-failure invalidation.

#include "scenario/fabric_builder.hpp"

#include <gtest/gtest.h>

#include "netsim/paths.hpp"
#include "scenario/topologies.hpp"

namespace hp::scenario {
namespace {

using netsim::NodeIndex;

TEST(BuiltFabric, WiringMirrorsRouterSubgraph) {
  const auto topo = make_leaf_spine(2, 3, 2);  // hosts must not get ports
  BuiltFabric built(topo);
  EXPECT_EQ(built.router_count(), 5u);
  EXPECT_EQ(built.fabric().node_count(), 5u);

  for (const NodeIndex r : built.routers()) {
    const std::size_t f = built.fabric_index(r);
    EXPECT_EQ(built.topo_index(f), r);
    EXPECT_EQ(built.fabric().node(f).name, built.topology().node(r).name);
    // One port per distinct router neighbour plus the egress port.
    std::size_t router_neighbours = 0;
    for (const auto l : topo.outgoing(r)) {
      if (topo.node(topo.link(l).to).kind == netsim::NodeKind::kRouter) {
        ++router_neighbours;
      }
    }
    EXPECT_EQ(built.fabric().node(f).port_count, router_neighbours + 1);
    EXPECT_EQ(built.egress_port(f), router_neighbours);
    // The egress port is unwired; the rest reach the right neighbours.
    EXPECT_FALSE(
        built.fabric().neighbour(f, built.egress_port(f)).has_value());
  }
  // Leaf0 <-> spine1 wired both ways through some port.
  const std::size_t leaf0 = built.fabric_index(topo.index_of("leaf0"));
  const std::size_t spine1 = built.fabric_index(topo.index_of("spine1"));
  EXPECT_TRUE(built.fabric().port_between(leaf0, spine1).has_value());
  EXPECT_TRUE(built.fabric().port_between(spine1, leaf0).has_value());

  EXPECT_THROW((void)built.fabric_index(topo.index_of("leaf0h0")),
               std::invalid_argument);
}

TEST(BuiltFabric, RoutesFollowShortestPathsAndAreCached) {
  const auto topo = make_ring(8);
  BuiltFabric built(topo);
  const NodeIndex src = topo.index_of("r0");
  const NodeIndex dst = topo.index_of("r3");
  const CompiledRoute* route = built.route(src, dst);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route, built.route(src, dst));  // cached pointer
  EXPECT_EQ(route->path.size(), 3u);        // r0-r1-r2-r3
  EXPECT_EQ(route->expected.hops, 4u);
  EXPECT_EQ(route->expected.egress_node, built.fabric_index(dst));
  ASSERT_TRUE(route->label.has_value());
  EXPECT_THROW((void)built.route(src, src), std::invalid_argument);
}

TEST(BuiltFabric, FailLinkInvalidatesExactlyTheCrossingRoutes) {
  const auto topo = make_ring(6);
  BuiltFabric built(topo);
  const NodeIndex r0 = topo.index_of("r0");
  const NodeIndex r1 = topo.index_of("r1");
  const NodeIndex r2 = topo.index_of("r2");
  const NodeIndex r5 = topo.index_of("r5");

  const CompiledRoute* forward = built.route(r0, r2);  // via r1
  const CompiledRoute* backward = built.route(r0, r5); // the other way
  ASSERT_NE(forward, nullptr);
  ASSERT_NE(backward, nullptr);
  const auto backward_hops = backward->expected.hops;

  const auto affected = built.apply_failure(r0, r1).affected;
  (void)built.repair_pending();
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_EQ(affected[0].first, r0);
  EXPECT_EQ(affected[0].second, r2);
  EXPECT_EQ(built.failed_links().size(), 2u);  // both directions

  // The surviving route recompiles identically; the severed pair now
  // detours the long way round (4 links instead of 2).
  EXPECT_EQ(built.route(r0, r5)->expected.hops, backward_hops);
  const CompiledRoute* detour = built.route(r0, r2);
  ASSERT_NE(detour, nullptr);
  EXPECT_EQ(detour->path.size(), 4u);
  EXPECT_EQ(detour->expected.egress_node, built.fabric_index(r2));

  EXPECT_THROW((void)built.apply_failure(r0, r2), std::invalid_argument);
}

TEST(BuiltFabric, DisconnectionYieldsNullRoute) {
  const auto topo = make_ring(4);
  BuiltFabric built(topo);
  const NodeIndex r0 = topo.index_of("r0");
  const NodeIndex r1 = topo.index_of("r1");
  const NodeIndex r2 = topo.index_of("r2");
  const NodeIndex r3 = topo.index_of("r3");
  (void)built.apply_failure(r0, r1);
  (void)built.apply_failure(r2, r3);  // ring cut twice: {r0, r3} vs {r1, r2}
  (void)built.repair_pending();
  EXPECT_EQ(built.route(r0, r1), nullptr);
  EXPECT_EQ(built.route(r0, r2), nullptr);
  ASSERT_NE(built.route(r0, r3), nullptr);
  ASSERT_NE(built.route(r1, r2), nullptr);
}

}  // namespace
}  // namespace hp::scenario
