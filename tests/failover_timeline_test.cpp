// One route timeline for both runners: the replay (ScenarioRunner) and
// the packet simulator (SimRunner) play a failure schedule through the
// same scenario::RouteTimeline, so their failover totals must agree on
// every builtin scenario, failure preset and protection setting.  The
// pair counts cover stream lanes only: a fabric pair the stream never
// sends on must not show up in either runner's report.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/timeline.hpp"
#include "scenario/topologies.hpp"
#include "scenario/traffic.hpp"
#include "sim/runner.hpp"

namespace hp::scenario {
namespace {

/// Prepare a runner's fabric the way run_sim_scenario does (every pair
/// compiled, so the fabric-wide window_recompiles agree too) and
/// generate the spec's stream, shortened to keep the sweep quick.
PacketStream prepare(BuiltFabric& fabric, const ScenarioSpec& spec) {
  fabric.compile_all_pairs();
  TrafficParams traffic = spec.traffic;
  traffic.packets = 2048;
  return generate_traffic(fabric, traffic);
}

TEST(FailoverTimeline, ReplayAndSimReportTheSameFailoverTotals) {
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    for (const FailurePreset preset :
         {FailurePreset::kSingle, FailurePreset::kStorm, FailurePreset::kFlap,
          FailurePreset::kSrlg}) {
      FailureInjectorParams inject;
      inject.preset = preset;
      inject.seed = 7;
      inject.count = 2;
      const std::vector<LinkFailure> schedule =
          make_failure_schedule(build_topology(spec), inject);
      for (const unsigned k : {0U, 1U}) {
        SCOPED_TRACE(spec.name + " " + to_string(preset) +
                     " protection_k=" + std::to_string(k));
        BuiltFabric replay_fabric(build_topology(spec));
        PacketStream replay_stream = prepare(replay_fabric, spec);
        RunnerOptions replay_options;
        replay_options.failures = schedule;
        replay_options.protection_k = k;
        const ScenarioReport r =
            ScenarioRunner(replay_options).run(replay_fabric, replay_stream);

        BuiltFabric sim_fabric(build_topology(spec));
        const PacketStream sim_stream = prepare(sim_fabric, spec);
        sim::SimOptions sim_options;
        sim_options.failures = schedule;
        sim_options.protection_k = k;
        const ScenarioReport s =
            sim::SimRunner(sim_options).run(sim_fabric, sim_stream).forwarding;

        EXPECT_EQ(r.rerouted_pairs, s.rerouted_pairs);
        EXPECT_EQ(r.backup_swapped_pairs, s.backup_swapped_pairs);
        EXPECT_EQ(r.lazy_repaired_pairs, s.lazy_repaired_pairs);
        EXPECT_EQ(r.unroutable_pairs, s.unroutable_pairs);
        EXPECT_EQ(r.window_recompiles, s.window_recompiles);
        EXPECT_EQ(r.wrong_egress, 0U);
        EXPECT_EQ(s.wrong_egress, 0U);
      }
    }
  }
}

TEST(FailoverTimeline, CountsStreamLanesOnly) {
  // A stream over one pair of a protected 8-ring: failing that pair's
  // link swaps many cached fabric pairs, but only the stream's lane
  // counts, and the versions name only that lane.
  BuiltFabric fabric(make_ring(8));
  fabric.compile_all_pairs();
  TrafficParams traffic;
  traffic.pattern = TrafficPattern::kUniformRandom;
  traffic.packets = 64;
  traffic.max_pairs = 1;
  const PacketStream stream = generate_traffic(fabric, traffic);
  ASSERT_EQ(stream.pairs.size(), 1U);
  const TrafficPair& pair = stream.pairs.front();
  const CompiledRoute* route = fabric.route(pair.src, pair.dst);
  ASSERT_NE(route, nullptr);
  const netsim::Link& first = fabric.topology().link(route->path.front());

  const std::vector<LinkFailure> schedule{
      {0.5, first.from, first.to, false}};
  const RouteTimeline timeline =
      build_route_timeline(fabric, stream, schedule, /*protection_k=*/1);
  EXPECT_GT(fabric.compile_stats().backup_swaps, 1U);
  ASSERT_EQ(timeline.events.size(), 1U);
  ASSERT_EQ(timeline.versions.size(), 1U);
  EXPECT_EQ(timeline.versions.front().lane, 0U);
  EXPECT_EQ(timeline.versions.front().kind, Adoption::kSwap);
  EXPECT_EQ(timeline.totals.backup_swapped_pairs, 1U);
  EXPECT_EQ(timeline.totals.rerouted_pairs, 1U);
  EXPECT_EQ(timeline.swap_stretch.size(), 1U);
}

TEST(FailoverTimeline, EmptyScheduleIsAnEmptyTimeline) {
  BuiltFabric fabric(make_ring(6));
  const PacketStream stream = generate_traffic(fabric, TrafficParams{});
  const RouteTimeline timeline =
      build_route_timeline(fabric, stream, {}, /*protection_k=*/1);
  EXPECT_GT(fabric.backup_table().pair_count(), 0U);  // protection armed
  EXPECT_TRUE(timeline.events.empty());
  EXPECT_TRUE(timeline.versions.empty());
  EXPECT_TRUE(timeline.seg_labels.empty());
}

TEST(FailoverTimeline, DropsNoOpEventsAndClampsPositions) {
  // Failing a dead link and restoring a live one change nothing, so
  // they are not events; out-of-range positions clamp to [0, 1].
  BuiltFabric fabric(make_ring(6));
  const PacketStream stream = generate_traffic(fabric, TrafficParams{});
  const auto r = [&](const char* name) {
    return fabric.topology().index_of(name);
  };
  const std::vector<LinkFailure> schedule{
      {-0.5, r("r0"), r("r1"), false},
      {0.2, r("r2"), r("r3"), true},   // restoring a live link
      {0.4, r("r0"), r("r1"), false},  // failing a dead link
      {1.5, r("r0"), r("r1"), true},
  };
  const RouteTimeline timeline =
      build_route_timeline(fabric, stream, schedule, /*protection_k=*/0);
  ASSERT_EQ(timeline.events.size(), 2U);
  EXPECT_DOUBLE_EQ(timeline.events[0].at_fraction, 0.0);
  EXPECT_FALSE(timeline.events[0].restore);
  EXPECT_DOUBLE_EQ(timeline.events[1].at_fraction, 1.0);
  EXPECT_TRUE(timeline.events[1].restore);
  for (const RouteVersion& v : timeline.versions) {
    EXPECT_LT(v.event, 2U);
    EXPECT_DOUBLE_EQ(v.at_fraction, timeline.events[v.event].at_fraction);
  }
}

}  // namespace
}  // namespace hp::scenario
