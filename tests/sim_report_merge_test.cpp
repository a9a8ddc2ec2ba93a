// Shard-merge schema tests: ScenarioReport partial reports merge by
// summing counters, and SimReport percentiles are nearest-rank order
// statistics over the raw FCT samples.

#include <gtest/gtest.h>

#include "scenario/runner.hpp"
#include "sim/report.hpp"

namespace scenario = hp::scenario;
namespace sim = hp::sim;

namespace {

scenario::ScenarioReport counted(std::size_t base) {
  scenario::ScenarioReport r;
  r.packets = base + 1;
  r.mod_operations = base + 2;
  r.wrong_egress = base + 3;
  r.rerouted_pairs = base + 4;
  r.dropped_packets = base + 5;
  r.ttl_expired = base + 6;
  r.segmented_packets = base + 7;
  r.segment_swaps = base + 8;
  r.seconds = static_cast<double>(base) + 0.5;
  return r;
}

TEST(ScenarioReportMerge, CountersSumAndKernelIsKept) {
  scenario::ScenarioReport merged = counted(100);
  merged.fold_kernel = hp::polka::FoldKernel::kClmulBarrett;
  scenario::ScenarioReport partial = counted(10);
  partial.fold_kernel = hp::polka::FoldKernel::kClmulBarrett;

  merged.merge_from(partial);
  EXPECT_EQ(merged.packets, 112u);
  EXPECT_EQ(merged.mod_operations, 114u);
  EXPECT_EQ(merged.wrong_egress, 116u);
  EXPECT_EQ(merged.rerouted_pairs, 118u);
  EXPECT_EQ(merged.dropped_packets, 120u);
  EXPECT_EQ(merged.ttl_expired, 122u);
  EXPECT_EQ(merged.segmented_packets, 124u);
  EXPECT_EQ(merged.segment_swaps, 126u);
  EXPECT_DOUBLE_EQ(merged.seconds, 111.0);
  EXPECT_EQ(merged.fold_kernel, hp::polka::FoldKernel::kClmulBarrett);
}

TEST(ScenarioReportMerge, MergingDefaultIsIdentity) {
  scenario::ScenarioReport merged = counted(7);
  const scenario::ScenarioReport before = merged;
  merged.merge_from(scenario::ScenarioReport{});
  EXPECT_EQ(merged, before);
}

TEST(SimReportMerge, PercentilesAreNearestRank) {
  sim::SimReport report;
  for (sim::Tick v = 1; v <= 20; ++v) report.fct_ns.push_back(21 - v);
  // ceil(0.5 * 20) = 10th order statistic; ceil(0.95 * 20) = 19th.
  EXPECT_EQ(report.fct_p50_ns(), 10u);
  EXPECT_EQ(report.fct_p95_ns(), 19u);

  sim::SimReport empty;
  EXPECT_EQ(empty.fct_p50_ns(), 0u);
  EXPECT_EQ(empty.fct_p95_ns(), 0u);

  sim::SimReport one;
  one.fct_ns = {42};
  EXPECT_EQ(one.fct_p50_ns(), 42u);
  EXPECT_EQ(one.fct_p95_ns(), 42u);
}

}  // namespace
