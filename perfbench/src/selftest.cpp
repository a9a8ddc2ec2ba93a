// Self-test of the benchmark's own logic: the order statistics against
// known vectors (the quartiles as Python's statistics.quantiles gives
// them), the span self-time arithmetic, and proof that each output gate
// fires on a deliberately broken output.

#include <cmath>
#include <cstdio>
#include <string>

#include "scenario/topologies.hpp"
#include "scenario/traffic.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

bool statistics_match_known_vectors() {
  const std::vector<double> wiki = {15, 20, 35, 40, 50};
  const Quartiles ten = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  const Quartiles two = quartiles({2, 1});
  return near(percentile(wiki, 0.05), 15) && near(percentile(wiki, 0.30), 20) &&
         near(percentile(wiki, 0.40), 20) && near(percentile(wiki, 0.50), 35) &&
         near(percentile(wiki, 1.00), 50) && near(median({7, 1, 5, 3}), 4) &&
         near(median({3, 1, 2}), 2) && near(ten.q1, 2.75) &&
         near(ten.q3, 8.25) && near(two.q1, 0.75) && near(two.q3, 2.25) &&
         near(relative_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5) &&
         highest_supported_quantile(19) == 0.0 &&
         highest_supported_quantile(20) == 0.50 &&
         highest_supported_quantile(200) == 0.95 &&
         highest_supported_quantile(1000) == 0.99;
}

bool self_times_subtract_children() {
  // bench.op [0, 100) > sim.runner.run [10, 90) > sim.simulate [20, 60);
  // a span on another thread never nests.
  const std::vector<hp::obs::TraceEvent> events = {
      {"sim.simulate", "phase", 20, 40, 1},
      {"sim.runner.run", "bench", 10, 80, 1},
      {"bench.op", "bench", 0, 100, 1},
      {"sim.simulate", "phase", 30, 10, 2},
  };
  const std::vector<LayerTime> rows = self_times(events, "bench.op");
  double bench = -1;
  double runner = -1;
  double engine = -1;
  for (const LayerTime& row : rows) {
    if (row.layer == "bench") bench = row.self_s;
    if (row.layer == "sim.runner") runner = row.self_s;
    if (row.layer == "sim.packet_sim") engine = row.self_s;
  }
  return rows.size() == 3 && near(bench, 20e-6) && near(runner, 40e-6) &&
         near(engine, 40e-6);
}

bool corrupted_label_trips_replay_gate() {
  namespace sc = hp::scenario;
  sc::BuiltFabric fabric(sc::make_torus(4, 4));
  sc::TrafficParams params;
  params.packets = 256;
  sc::PacketStream stream = sc::generate_traffic(fabric, params);
  const sc::RunnerOptions options;
  WorkloadResult clean;
  (void)check_replay(sc::ScenarioRunner(options).run(fabric, stream),
                     stream.size(), clean);
  stream.labels[0].bits ^= 1;  // the first hop now picks another port
  WorkloadResult corrupted;
  const std::uint64_t failed = check_replay(
      sc::ScenarioRunner(options).run(fabric, stream), stream.size(),
      corrupted);
  return clean.gate_failures.empty() && failed == 1 &&
         !corrupted.gate_failures.empty();
}

}  // namespace

int run_self_test() {
  struct Check {
    const char* name;
    bool (*run)();
  };
  const Check checks[] = {
      {"statistics match known vectors", statistics_match_known_vectors},
      {"self times subtract child spans", self_times_subtract_children},
      {"corrupted label trips the replay gate",
       corrupted_label_trips_replay_gate},
      {"dropped churn repair trips the route gate",
       churn_gate_catches_dropped_repairs},
  };
  int failed = 0;
  for (const Check& check : checks) {
    const bool ok = check.run();
    failed += ok ? 0 : 1;
    std::printf("self-test: %-44s %s\n", check.name, ok ? "ok" : "FAIL");
  }
  return failed;
}

}  // namespace perfbench
