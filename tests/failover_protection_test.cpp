// Hitless failover: pre-installed backup segments on the BuiltFabric
// and the ScenarioRunner's failure handling on top of them.
//
// The protection contract under test:
//  * a failure on a protected fabric swaps crossing pairs to their
//    backups with ZERO route compilations inside the event;
//  * swapped routes deliver to the same egress as an eager recompile
//    would (parity across every topology family);
//  * failing a dead link / restoring a live one is a graceful no-op;
//  * severing the fabric reports unroutable pairs explicitly instead of
//    misdelivering;
//  * restore reverts to the saved primary, again without compiling;
//  * a restore that reconnects severed pairs gives them live routes
//    again, and the replay forwards their packets from then on;
//  * reports are deterministic across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/fabric_builder.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/topologies.hpp"
#include "scenario/traffic.hpp"

namespace hp::scenario {
namespace {

using netsim::NodeIndex;

/// Equality modulo wall clock, for determinism assertions.
bool same_counters(ScenarioReport lhs, ScenarioReport rhs) {
  lhs.seconds = 0.0;
  rhs.seconds = 0.0;
  return lhs == rhs;
}

TEST(FailoverProtection, SwapCompilesNothingInTheWindow) {
  BuiltFabric fabric(make_ring(12));
  fabric.compile_all_pairs();
  const std::size_t installed = fabric.enable_protection(1);
  EXPECT_GT(installed, 0U);
  EXPECT_EQ(fabric.compile_stats().backup_routes, installed);

  const std::size_t compiled_before = fabric.compile_stats().routes_compiled;
  const NodeIndex r0 = fabric.topology().index_of("r0");
  const NodeIndex r1 = fabric.topology().index_of("r1");
  const FailoverReport report = fabric.apply_failure(r0, r1);

  EXPECT_FALSE(report.duplicate);
  EXPECT_FALSE(report.affected.empty());
  EXPECT_EQ(report.window_recompiles, 0U);
  EXPECT_EQ(report.affected.size(), report.swapped.size())
      << "a ring pair missed its backup";
  EXPECT_EQ(report.swapped.size(), report.swap_stretch.size());
  EXPECT_TRUE(report.repaired.empty());
  EXPECT_TRUE(report.pending.empty());
  EXPECT_TRUE(report.unroutable.empty());
  // The hard acceptance bar: the failure window compiled no route.
  EXPECT_EQ(fabric.compile_stats().routes_compiled, compiled_before);
  EXPECT_GT(fabric.compile_stats().backup_swaps, 0U);
  // A ring detour is never shorter than the arc it replaces, and at
  // least one non-diametrical pair pays real stretch.
  double max_stretch = 0.0;
  for (const double stretch : report.swap_stretch) {
    EXPECT_GE(stretch, 1.0);
    max_stretch = std::max(max_stretch, stretch);
  }
  EXPECT_GT(max_stretch, 1.0);
}

TEST(FailoverProtection, BackupMatchesRecomputeOnEveryFamily) {
  // Per family: fabric A swaps to pre-installed backups, fabric B
  // eagerly recompiles.  Both must agree on which pairs survive and on
  // every surviving pair's egress node and port.
  for (const char* name : {"fat_tree_k4/uniform", "leaf_spine_4x8/uniform",
                           "ring12/uniform", "torus4x4/uniform",
                           "rr16d4/uniform"}) {
    const ScenarioSpec* spec = find_scenario(name);
    ASSERT_NE(spec, nullptr) << name;

    BuiltFabric protected_fabric(build_topology(*spec));
    BuiltFabric eager_fabric(build_topology(*spec));
    protected_fabric.compile_all_pairs();
    eager_fabric.compile_all_pairs();
    protected_fabric.enable_protection(1);

    FailureInjectorParams inject;
    inject.seed = 4242;
    const auto schedule =
        make_failure_schedule(protected_fabric.topology(), inject);
    ASSERT_EQ(schedule.size(), 1U) << name;

    const FailoverReport event =
        protected_fabric.apply_failure(schedule[0].a, schedule[0].b);
    ASSERT_FALSE(event.affected.empty()) << name;
    (void)protected_fabric.repair_pending();
    (void)eager_fabric.apply_failure(schedule[0].a, schedule[0].b);
    (void)eager_fabric.repair_pending();

    const auto& routers = protected_fabric.routers();
    for (const NodeIndex src : routers) {
      for (const NodeIndex dst : routers) {
        if (src == dst) continue;
        const CompiledRoute* via_backup = protected_fabric.route(src, dst);
        const CompiledRoute* via_recompute = eager_fabric.route(src, dst);
        ASSERT_EQ(via_backup == nullptr, via_recompute == nullptr)
            << name << ": routability diverged for " << src << "->" << dst;
        if (via_backup == nullptr) continue;
        EXPECT_EQ(via_backup->expected.egress_node,
                  via_recompute->expected.egress_node)
            << name << ": " << src << "->" << dst;
        EXPECT_EQ(via_backup->expected.egress_port,
                  via_recompute->expected.egress_port)
            << name << ": " << src << "->" << dst;
        EXPECT_FALSE(via_backup->expected.ttl_expired);
      }
    }
  }
}

TEST(FailoverProtection, DoubleFailAndDoubleRestoreAreNoOps) {
  BuiltFabric fabric(make_ring(8));
  fabric.compile_all_pairs();
  fabric.enable_protection(1);
  const NodeIndex r0 = fabric.topology().index_of("r0");
  const NodeIndex r1 = fabric.topology().index_of("r1");

  const FailoverReport first = fabric.apply_failure(r0, r1);
  EXPECT_FALSE(first.duplicate);
  const FailoverReport again = fabric.apply_failure(r0, r1);
  EXPECT_TRUE(again.duplicate);
  EXPECT_TRUE(again.affected.empty());

  const FailoverReport back = fabric.restore_link(r0, r1);
  EXPECT_FALSE(back.duplicate);
  const FailoverReport back_again = fabric.restore_link(r0, r1);
  EXPECT_TRUE(back_again.duplicate);
  EXPECT_TRUE(back_again.affected.empty());

  // Non-existent links still throw: a typo is not a graceful no-op.
  EXPECT_THROW((void)fabric.apply_failure(r0, fabric.topology().index_of("r4")),
               std::invalid_argument);
}

TEST(FailoverProtection, RestoreRevertsToThePrimaryWithoutCompiling) {
  BuiltFabric fabric(make_ring(8));
  fabric.compile_all_pairs();
  fabric.enable_protection(1);
  const NodeIndex r0 = fabric.topology().index_of("r0");
  const NodeIndex r1 = fabric.topology().index_of("r1");
  const unsigned primary_hops = fabric.route(r0, r1)->expected.hops;

  const FailoverReport fail = fabric.apply_failure(r0, r1);
  ASSERT_FALSE(fail.swapped.empty());
  EXPECT_GT(fabric.route(r0, r1)->expected.hops, primary_hops);

  const std::size_t compiled_before = fabric.compile_stats().routes_compiled;
  const FailoverReport restore = fabric.restore_link(r0, r1);
  EXPECT_EQ(restore.window_recompiles, 0U);
  EXPECT_EQ(fabric.compile_stats().routes_compiled, compiled_before);
  // Every pair the failure displaced is back on its original primary.
  EXPECT_EQ(restore.swapped.size(), fail.swapped.size());
  EXPECT_EQ(fabric.route(r0, r1)->expected.hops, primary_hops);
  for (const double stretch : restore.swap_stretch) {
    EXPECT_DOUBLE_EQ(stretch, 1.0);
  }
}

TEST(FailoverProtection, SeveredPairsAreExplicitlyUnroutable) {
  // Cutting a 6-ring twice isolates {r1, r2} from {r3..r0}: protection
  // cannot save pairs with no surviving path -- they must surface in
  // `unroutable`, and route() must say nullptr rather than misroute.
  BuiltFabric fabric(make_ring(6));
  fabric.compile_all_pairs();
  fabric.enable_protection(1);
  const auto r = [&](const char* name) {
    return fabric.topology().index_of(name);
  };
  (void)fabric.apply_failure(r("r0"), r("r1"));
  const FailoverReport second = fabric.apply_failure(r("r2"), r("r3"));
  FailoverReport lazy;
  if (fabric.pending_repair_count() > 0) lazy = fabric.repair_pending();

  std::set<std::pair<NodeIndex, NodeIndex>> unroutable(
      second.unroutable.begin(), second.unroutable.end());
  unroutable.insert(lazy.unroutable.begin(), lazy.unroutable.end());
  EXPECT_FALSE(unroutable.empty());
  for (const auto& [src, dst] : unroutable) {
    EXPECT_EQ(fabric.route(src, dst), nullptr)
        << src << "->" << dst << " reported severed but still routes";
  }
  // Pairs inside each island still route.
  EXPECT_NE(fabric.route(r("r1"), r("r2")), nullptr);
  EXPECT_NE(fabric.route(r("r4"), r("r5")), nullptr);
  EXPECT_EQ(fabric.route(r("r1"), r("r4")), nullptr);
}

TEST(FailoverProtection, RestoreReconnectsSeveredPairs) {
  // Cut an 8-ring into {r1..r4} and {r5..r0}, then restore r4<->r5:
  // the ring becomes a line and every pair is connected again.  Each
  // pair must then have a cached route (route() compiles nothing) that
  // avoids the dead link and reaches its destination's egress -- with
  // and without protection.
  for (const unsigned k : {0U, 1U}) {
    SCOPED_TRACE("protection_k=" + std::to_string(k));
    BuiltFabric fabric(make_ring(8));
    fabric.compile_all_pairs();
    if (k > 0) (void)fabric.enable_protection(k);
    const auto r = [&](const char* name) {
      return fabric.topology().index_of(name);
    };
    std::size_t severed = 0;
    for (const auto& [a, b] : {std::pair{r("r0"), r("r1")},
                               std::pair{r("r4"), r("r5")}}) {
      severed += fabric.apply_failure(a, b).unroutable.size();
      severed += fabric.repair_pending().unroutable.size();
    }
    ASSERT_EQ(severed, 2U * 4U * 4U);  // every cross-island pair, both ways
    EXPECT_EQ(fabric.route(r("r1"), r("r5")), nullptr);

    const FailoverReport restore = fabric.restore_link(r("r4"), r("r5"));
    EXPECT_FALSE(restore.repaired.empty());
    EXPECT_EQ(restore.window_recompiles, restore.repaired.size());
    EXPECT_EQ(restore.swapped.size() + restore.repaired.size(),
              restore.affected.size());

    const polka::CompiledFabric& fast = fabric.compiled();
    const std::size_t compiled = fabric.compile_stats().routes_compiled;
    for (const NodeIndex src : fabric.routers()) {
      for (const NodeIndex dst : fabric.routers()) {
        if (src == dst) continue;
        const CompiledRoute* route = fabric.route(src, dst);
        ASSERT_NE(route, nullptr) << src << "->" << dst;
        for (const netsim::LinkIndex l : route->path) {
          EXPECT_EQ(std::ranges::count(fabric.failed_links(), l), 0)
              << src << "->" << dst << " rides a dead link";
        }
        const polka::PacketResult walk = fast.forward_segmented(
            route->segments.labels, route->segments.waypoints,
            route->ingress);
        EXPECT_FALSE(walk.ttl_expired);
        EXPECT_EQ(walk.egress_node, fabric.fabric_index(dst));
        EXPECT_EQ(walk.egress_port, fabric.egress_port(walk.egress_node));
      }
    }
    EXPECT_EQ(fabric.compile_stats().routes_compiled, compiled)
        << "a connected pair had no cached route after the restore";
  }
}

TEST(FailoverRunner, RevivedLanesForwardAfterTheRestore) {
  // The same cut-and-restore as a replay schedule: a cross-island lane
  // drops only the packets between the second cut and the restore;
  // from the restore on its packets are forwarded again.
  for (const unsigned k : {0U, 1U}) {
    SCOPED_TRACE("protection_k=" + std::to_string(k));
    BuiltFabric fabric(make_ring(8));
    TrafficParams traffic;
    traffic.pattern = TrafficPattern::kUniformRandom;
    traffic.packets = 8192;
    traffic.seed = 5;
    PacketStream stream = generate_traffic(fabric, traffic);
    const auto r = [&](const char* name) {
      return fabric.topology().index_of(name);
    };
    RunnerOptions options;
    options.threads = 2;
    options.protection_k = k;
    options.failures = {LinkFailure{0.2, r("r0"), r("r1")},
                        LinkFailure{0.3, r("r4"), r("r5")},
                        LinkFailure{0.5, r("r4"), r("r5"), true}};

    // Packets of cross-island lanes inside [cut, restore).
    const auto island = [&](NodeIndex n) {
      return n >= r("r1") && n <= r("r4");
    };
    const auto at = [&](double f) {
      return static_cast<std::size_t>(std::llround(f * 8192.0));
    };
    std::size_t cut_off = 0;
    std::size_t revived = 0;
    for (std::size_t i = at(0.3); i < stream.size(); ++i) {
      const TrafficPair& pair = stream.pairs[stream.pair[i]];
      if (island(pair.src) == island(pair.dst)) continue;
      ++(i < at(0.5) ? cut_off : revived);
    }
    ASSERT_GT(cut_off, 0U);
    ASSERT_GT(revived, 0U);

    const ScenarioReport report = ScenarioRunner(options).run(fabric, stream);
    EXPECT_EQ(report.wrong_egress, 0U);
    EXPECT_GT(report.unroutable_pairs, 0U);
    EXPECT_EQ(report.dropped_packets, cut_off);
    EXPECT_EQ(report.failover_packets_lost, cut_off);
    EXPECT_EQ(report.packets + report.dropped_packets, 8192U);
  }
}

TEST(FailoverRunner, ProtectedRingLosesNothingOnSingleFailure) {
  // The headline behaviour: with 1-disjoint protection a single link
  // failure is hitless -- zero window recompiles, zero packets lost --
  // while the unprotected run pays the convergence window.
  BuiltFabric fabric(make_ring(16));
  TrafficParams traffic;
  traffic.pattern = TrafficPattern::kUniformRandom;
  traffic.packets = 8192;
  traffic.seed = 7;
  PacketStream stream = generate_traffic(fabric, traffic);

  RunnerOptions options;
  options.threads = 2;
  options.loss_window_per_recompile = 4;
  options.failures.push_back(LinkFailure{0.5, fabric.topology().index_of("r3"),
                                         fabric.topology().index_of("r4")});

  const ScenarioReport eager = ScenarioRunner(options).run(fabric, stream);
  EXPECT_GT(eager.window_recompiles, 0U);
  EXPECT_GT(eager.failover_packets_lost, 0U);
  EXPECT_EQ(eager.packets + eager.dropped_packets, 8192U);

  BuiltFabric armed(make_ring(16));
  PacketStream same_stream = generate_traffic(armed, traffic);
  options.protection_k = 1;
  const ScenarioReport hitless =
      ScenarioRunner(options).run(armed, same_stream);
  EXPECT_EQ(hitless.window_recompiles, 0U);
  EXPECT_EQ(hitless.failover_packets_lost, 0U);
  EXPECT_EQ(hitless.dropped_packets, 0U);
  EXPECT_GT(hitless.backup_swapped_pairs, 0U);
  EXPECT_EQ(hitless.packets, 8192U);
  EXPECT_EQ(hitless.wrong_egress, 0U);
  EXPECT_LT(hitless.failover_packets_lost, eager.failover_packets_lost);
}

TEST(FailoverRunner, StormWithProtectionKeepsEgressIntent) {
  // A node storm (every link of one router) under 4 replay threads:
  // packets either arrive where their pair intended or are counted
  // dropped -- never misdelivered.
  const ScenarioSpec* spec = find_scenario("torus4x4/uniform");
  ASSERT_NE(spec, nullptr);
  BuiltFabric fabric(build_topology(*spec));
  TrafficParams traffic = spec->traffic;
  traffic.packets = 8192;
  PacketStream stream = generate_traffic(fabric, traffic);

  FailureInjectorParams inject;
  inject.preset = FailurePreset::kStorm;
  inject.seed = 3;

  RunnerOptions options;
  options.threads = 4;
  options.protection_k = 2;
  options.loss_window_per_recompile = 4;
  options.failures = make_failure_schedule(fabric.topology(), inject);
  const ScenarioReport report = ScenarioRunner(options).run(fabric, stream);
  EXPECT_EQ(report.wrong_egress, 0U);
  EXPECT_EQ(report.packets + report.dropped_packets, 8192U);
  EXPECT_GT(report.backup_swapped_pairs, 0U);
}

TEST(FailoverRunner, FlapReportsAreBitIdenticalAcrossRunsAndThreads) {
  // Fixed seed + flap schedule (failures AND restores) must yield the
  // same counters on every run and for every thread count.
  const ScenarioSpec* spec = find_scenario("ring12/uniform");
  ASSERT_NE(spec, nullptr);

  const auto run_once = [&](unsigned threads) {
    BuiltFabric fabric(build_topology(*spec));
    TrafficParams traffic = spec->traffic;
    traffic.packets = 8192;
    PacketStream stream = generate_traffic(fabric, traffic);
    FailureInjectorParams inject;
    inject.preset = FailurePreset::kFlap;
    inject.seed = 99;
    inject.count = 2;
    RunnerOptions options;
    options.threads = threads;
    options.protection_k = 1;
    options.loss_window_per_recompile = 4;
    options.failures = make_failure_schedule(fabric.topology(), inject);
    return ScenarioRunner(options).run(fabric, stream);
  };

  const ScenarioReport reference = run_once(1);
  EXPECT_EQ(reference.wrong_egress, 0U);
  EXPECT_TRUE(same_counters(reference, run_once(1))) << "rerun diverged";
  EXPECT_TRUE(same_counters(reference, run_once(4))) << "threads diverged";
  EXPECT_TRUE(same_counters(reference, run_once(8))) << "threads diverged";
}

}  // namespace
}  // namespace hp::scenario
