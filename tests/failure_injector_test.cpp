// FailureInjector: deterministic schedule generation over a topology.
// The contract under test is reproducibility (same params -> identical
// schedule), preset shape (single / storm / flap semantics) and window
// discipline (no event outside [start_fraction, end_fraction)).

#include "scenario/failure_injector.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "scenario/topologies.hpp"

namespace hp::scenario {
namespace {

using netsim::NodeIndex;
using netsim::Topology;

FailureInjectorParams params_for(FailurePreset preset, std::uint64_t seed,
                                 std::size_t count) {
  FailureInjectorParams params;
  params.preset = preset;
  params.seed = seed;
  params.count = count;
  return params;
}

bool same_schedule(const std::vector<LinkFailure>& lhs,
                   const std::vector<LinkFailure>& rhs) {
  if (lhs.size() != rhs.size()) return false;
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    if (lhs[i].at_fraction != rhs[i].at_fraction || lhs[i].a != rhs[i].a ||
        lhs[i].b != rhs[i].b || lhs[i].restore != rhs[i].restore) {
      return false;
    }
  }
  return true;
}

TEST(FailureInjector, SameSeedSameSchedule) {
  const Topology topo = make_fat_tree(4);
  for (const FailurePreset preset :
       {FailurePreset::kSingle, FailurePreset::kStorm, FailurePreset::kFlap,
        FailurePreset::kSrlg}) {
    const auto first =
        make_failure_schedule(topo, params_for(preset, 77, 3));
    const auto second =
        make_failure_schedule(topo, params_for(preset, 77, 3));
    EXPECT_TRUE(same_schedule(first, second)) << to_string(preset);
    const auto other =
        make_failure_schedule(topo, params_for(preset, 78, 3));
    EXPECT_FALSE(same_schedule(first, other))
        << to_string(preset) << ": seed is ignored";
  }
}

TEST(FailureInjector, ScheduleIsSortedAndWindowed) {
  const Topology topo = make_torus(4, 4);
  for (const FailurePreset preset :
       {FailurePreset::kSingle, FailurePreset::kStorm, FailurePreset::kFlap,
        FailurePreset::kSrlg}) {
    FailureInjectorParams params = params_for(preset, 5, 4);
    params.start_fraction = 0.30;
    params.end_fraction = 0.80;
    const auto schedule = make_failure_schedule(topo, params);
    ASSERT_FALSE(schedule.empty()) << to_string(preset);
    double last = 0.0;
    for (const LinkFailure& event : schedule) {
      EXPECT_GE(event.at_fraction, params.start_fraction);
      EXPECT_LT(event.at_fraction, params.end_fraction);
      EXPECT_GE(event.at_fraction, last) << "schedule not sorted";
      last = event.at_fraction;
      EXPECT_NE(event.a, event.b);
    }
  }
}

TEST(FailureInjector, SinglePicksDistinctLinksNoRestores) {
  const Topology topo = make_ring(12);
  const auto schedule =
      make_failure_schedule(topo, params_for(FailurePreset::kSingle, 9, 5));
  EXPECT_EQ(schedule.size(), 5U);
  std::set<std::pair<NodeIndex, NodeIndex>> links;
  for (const LinkFailure& event : schedule) {
    EXPECT_FALSE(event.restore);
    links.insert({std::min(event.a, event.b), std::max(event.a, event.b)});
  }
  EXPECT_EQ(links.size(), 5U) << "single preset reused a link";
}

TEST(FailureInjector, StormTakesEveryLinkOfTheEpicentre) {
  // One storm on a ring: some router fails, and exactly its two ring
  // links go down at the same instant.
  const Topology topo = make_ring(8);
  const auto schedule =
      make_failure_schedule(topo, params_for(FailurePreset::kStorm, 21, 1));
  ASSERT_EQ(schedule.size(), 2U);
  EXPECT_DOUBLE_EQ(schedule[0].at_fraction, schedule[1].at_fraction);
  // The epicentre is the endpoint both events share.
  std::map<NodeIndex, int> touched;
  for (const LinkFailure& event : schedule) {
    EXPECT_FALSE(event.restore);
    ++touched[event.a];
    ++touched[event.b];
  }
  int epicentres = 0;
  for (const auto& [node, hits] : touched) {
    if (hits == 2) ++epicentres;
  }
  EXPECT_EQ(epicentres, 1);
}

TEST(FailureInjector, FlapAlternatesDownUpPerLink) {
  const Topology topo = make_leaf_spine(4, 8);
  FailureInjectorParams params = params_for(FailurePreset::kFlap, 13, 2);
  params.mean_up_fraction = 0.10;
  params.mean_down_fraction = 0.03;
  const auto schedule = make_failure_schedule(topo, params);
  ASSERT_FALSE(schedule.empty());
  // Per flapping link the events must read down, up, down, up, ...
  std::map<std::pair<NodeIndex, NodeIndex>, std::vector<bool>> restores;
  for (const LinkFailure& event : schedule) {
    restores[{std::min(event.a, event.b), std::max(event.a, event.b)}]
        .push_back(event.restore);
  }
  EXPECT_LE(restores.size(), 2U);
  for (const auto& [link, sequence] : restores) {
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      EXPECT_EQ(sequence[i], i % 2 == 1)
          << "flap sequence out of phase at event " << i;
    }
  }
}

TEST(FailureInjector, EveryFlappingLinkFailsAtLeastOnce) {
  // A first up-dwell past the window must not leave its link never
  // failing (ring12 seed 7, count 1 draws one).
  const Topology topo = make_ring(12);
  for (const std::size_t count : {std::size_t{1}, std::size_t{3}}) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      const auto schedule = make_failure_schedule(
          topo, params_for(FailurePreset::kFlap, seed, count));
      std::set<std::pair<NodeIndex, NodeIndex>> failed;
      for (const LinkFailure& event : schedule) {
        if (!event.restore) {
          failed.insert({std::min(event.a, event.b),
                         std::max(event.a, event.b)});
        }
      }
      EXPECT_EQ(failed.size(), count)
          << "seed " << seed << " count " << count
          << ": a chosen link never goes down";
    }
  }
}

TEST(FailureInjector, FlapScheduleWhoseLinksAllFailIsPinned) {
  // Every chosen link fails on its first dwell here, so the in-window
  // redraw never runs: the schedule is the plain MTBF/MTTR walk, bit
  // for bit.
  const std::vector<LinkFailure> pinned = {
      {0x1.50df99b45d942p-2, 10, 11, false},
      {0x1.698c800b0fe38p-2, 10, 11, true},
      {0x1.5db4092801466p-1, 5, 6, false},
      {0x1.88b783512c68ap-1, 5, 6, true},
      {0x1.919ccd35b5ecdp-1, 5, 6, false},
      {0x1.a1c9f24b02a0cp-1, 5, 6, true},
      {0x1.c2442f5c03d09p-1, 4, 5, false},
  };
  EXPECT_TRUE(same_schedule(
      make_failure_schedule(make_ring(12),
                            params_for(FailurePreset::kFlap, 22, 3)),
      pinned));
}

TEST(FailureInjector, SrlgFailsACorrelatedGroupAtOneInstant) {
  // One shared-risk event on a torus: exactly srlg_size distinct links
  // down at the same fraction, no restores.
  const Topology topo = make_torus(4, 4);
  FailureInjectorParams params = params_for(FailurePreset::kSrlg, 31, 1);
  params.srlg_size = 4;
  const auto schedule = make_failure_schedule(topo, params);
  ASSERT_EQ(schedule.size(), 4U);
  std::set<std::pair<NodeIndex, NodeIndex>> links;
  for (const LinkFailure& event : schedule) {
    EXPECT_FALSE(event.restore);
    EXPECT_DOUBLE_EQ(event.at_fraction, schedule.front().at_fraction)
        << "group members must share fate at one instant";
    links.insert({std::min(event.a, event.b), std::max(event.a, event.b)});
  }
  EXPECT_EQ(links.size(), 4U) << "srlg group reused a link";

  // Group size clamps to the eligible population instead of throwing.
  FailureInjectorParams huge = params_for(FailurePreset::kSrlg, 31, 1);
  huge.srlg_size = 10'000;
  const auto clamped = make_failure_schedule(topo, huge);
  EXPECT_GE(clamped.size(), 1U);
  EXPECT_LE(clamped.size(), 10'000U);

  // A zero group size is a caller bug.
  FailureInjectorParams zero = params_for(FailurePreset::kSrlg, 31, 1);
  zero.srlg_size = 0;
  EXPECT_THROW((void)make_failure_schedule(topo, zero),
               std::invalid_argument);
}

TEST(FailureInjector, RejectsBadWindowsAndLinklessGraphs) {
  const Topology topo = make_ring(4);
  FailureInjectorParams params;
  params.start_fraction = 0.8;
  params.end_fraction = 0.2;  // empty window
  EXPECT_THROW((void)make_failure_schedule(topo, params),
               std::invalid_argument);
  params.start_fraction = -0.5;
  params.end_fraction = 0.5;
  EXPECT_THROW((void)make_failure_schedule(topo, params),
               std::invalid_argument);

  Topology hostile;  // two hosts, no router-router duplex link
  hostile.add_node("h1", netsim::NodeKind::kHost);
  hostile.add_node("h2", netsim::NodeKind::kHost);
  hostile.add_duplex_link(0, 1, 100.0, 1.0);
  EXPECT_THROW(
      (void)make_failure_schedule(hostile, FailureInjectorParams{}),
      std::invalid_argument);
}

TEST(FailureInjector, PresetNamesRoundTrip) {
  for (const FailurePreset preset :
       {FailurePreset::kSingle, FailurePreset::kStorm, FailurePreset::kFlap,
        FailurePreset::kSrlg}) {
    const auto parsed = parse_failure_preset(to_string(preset));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, preset);
  }
  EXPECT_FALSE(parse_failure_preset("meteor").has_value());
  EXPECT_FALSE(parse_failure_preset("").has_value());
}

}  // namespace
}  // namespace hp::scenario
