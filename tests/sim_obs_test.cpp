// Observability-through-the-simulator tests: registry counters agree
// with the SimReport, snapshots and flight recordings are bit-identical
// for a fixed seed across runs and compile thread counts, phase traces
// appear, the telemetry bridge writes deterministic gauge series on
// simulated ticks, and replay metrics mirror ScenarioReport.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/traffic.hpp"
#include "sim/packet_sim.hpp"
#include "sim/runner.hpp"
#include "telemetry/store.hpp"

namespace scenario = hp::scenario;
namespace sim = hp::sim;
namespace obs = hp::obs;

namespace {

scenario::ScenarioSpec small_spec(const char* name) {
  const scenario::ScenarioSpec* base = scenario::find_scenario(name);
  EXPECT_NE(base, nullptr) << name;
  scenario::ScenarioSpec spec = *base;
  spec.traffic.packets = 2048;
  spec.traffic.max_pairs = 64;
  spec.traffic.seed = 5;
  return spec;
}

std::uint64_t link_counter(const obs::MetricsSnapshot& snap, std::size_t ch,
                           const char* what) {
  return snap.counter_or(sim::link_metric_name(ch, what));
}

/// Every engine-side sim.* counter against the report it is copied
/// from, plus the per-link counters summed against the totals.
void expect_counters_match(const obs::MetricsSnapshot& snap,
                           const sim::SimReport& report) {
  const scenario::ScenarioReport& fwd = report.forwarding;
  EXPECT_EQ(snap.counter_or("sim.injected"), fwd.packets + fwd.dropped_packets);
  EXPECT_EQ(snap.counter_or("sim.delivered"), fwd.packets - fwd.ttl_expired);
  EXPECT_EQ(snap.counter_or("sim.tail_drops"),
            fwd.dropped_packets - fwd.failover_packets_lost);
  EXPECT_EQ(snap.counter_or("sim.ttl_expired"), fwd.ttl_expired);
  EXPECT_EQ(snap.counter_or("sim.ecn_marked"), report.ecn_marked);
  EXPECT_EQ(snap.counter_or("sim.folds"), fwd.mod_operations);
  EXPECT_EQ(snap.counter_or("sim.segment_swaps"), fwd.segment_swaps);
  EXPECT_EQ(snap.counter_or("sim.wrong_egress"), fwd.wrong_egress);
  EXPECT_EQ(snap.counter_or("sim.failover.packets_lost"),
            fwd.failover_packets_lost);
  EXPECT_EQ(snap.counter_or("sim.flows"), report.flows);
  EXPECT_EQ(snap.counter_or("sim.completed_flows"), report.completed_flows);
  // Every injected packet terminated one way or another.
  const obs::MetricValue* in_flight = snap.find("sim.in_flight");
  ASSERT_NE(in_flight, nullptr);
  EXPECT_EQ(in_flight->gauge, 0);
  // One FCT histogram sample per completed flow.
  const obs::MetricValue* fct = snap.find("sim.fct_ns");
  ASSERT_NE(fct, nullptr);
  EXPECT_EQ(fct->histogram.count, report.completed_flows);
  std::uint64_t drops = 0;
  std::uint64_t ecn = 0;
  std::size_t links = 0;
  for (const obs::MetricValue& m : snap.entries) {
    if (m.name.starts_with("sim.link.") && m.name.ends_with(".queue_depth")) {
      drops += link_counter(snap, links, "drops");
      ecn += link_counter(snap, links, "ecn");
      ++links;
    }
  }
  EXPECT_GT(links, 0u);
  EXPECT_EQ(drops, fwd.dropped_packets);
  EXPECT_EQ(ecn, report.ecn_marked);
}

TEST(SimObservability, CountersAgreeWithReport) {
  {
    SCOPED_TRACE("open loop, per link");
    const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");
    obs::MetricRegistry registry;
    scenario::BuiltFabric fabric(scenario::build_topology(spec));
    fabric.set_observability(&registry, nullptr);
    fabric.compile_all_pairs(1);
    const scenario::PacketStream stream =
        scenario::generate_traffic(fabric, spec.traffic);
    // Every hop of every flow, so each LinkStat event has a record.
    obs::FlightRecorder recorder(/*capacity=*/1 << 20, /*sample_every=*/1);
    sim::SimOptions options;
    options.metrics = &registry;
    options.recorder = &recorder;
    const sim::SimReport report = sim::SimRunner(options).run(fabric, stream);
    const obs::MetricsSnapshot snap = registry.snapshot();
    expect_counters_match(snap, report);
    EXPECT_GT(report.forwarding.dropped_packets, 0u);
    EXPECT_GT(report.ecn_marked, 0u);
    // Compile metrics flowed through the fabric the runner compiled.
    EXPECT_GT(snap.counter_or("compile.routes"), 0u);

    // Per link: the drops and ECN marks the flight recorder saw on each
    // channel, numbered the way SimRunner wires them (node by node, port
    // by port, unwired ports skipped).
    ASSERT_EQ(recorder.total_recorded(), recorder.records().size());
    const hp::polka::CompiledFabric& fast = fabric.compiled();
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> channel_of;
    for (std::uint32_t node = 0; node < fast.node_count(); ++node) {
      for (std::uint32_t port = 0; port < fast.port_count(node); ++port) {
        if (fast.neighbor(node, port) != hp::polka::CompiledFabric::kNoNode) {
          channel_of.emplace(std::make_pair(node, port), channel_of.size());
        }
      }
    }
    std::vector<std::uint64_t> drops(channel_of.size(), 0);
    std::vector<std::uint64_t> ecn(channel_of.size(), 0);
    for (const obs::HopRecord& r : recorder.records()) {
      const auto it = channel_of.find({r.node, r.port});
      if (it == channel_of.end()) continue;  // a delivery
      if (r.outcome == obs::HopOutcome::kTailDrop ||
          r.outcome == obs::HopOutcome::kLinkDown) {
        ++drops[it->second];
      } else if (r.outcome == obs::HopOutcome::kForwarded &&
                 r.queue_depth >= options.ecn_threshold) {
        ++ecn[it->second];
      }
    }
    for (std::size_t ch = 0; ch < channel_of.size(); ++ch) {
      EXPECT_EQ(link_counter(snap, ch, "drops"), drops[ch]) << "channel " << ch;
      EXPECT_EQ(link_counter(snap, ch, "ecn"), ecn[ch]) << "channel " << ch;
    }
  }
  {
    SCOPED_TRACE("flap failures");
    const scenario::ScenarioSpec spec = small_spec("torus4x4/uniform");
    obs::MetricRegistry registry;
    sim::SimOptions options;
    options.metrics = &registry;
    options.protection_k = 1;
    scenario::FailureInjectorParams inject;
    inject.preset = scenario::FailurePreset::kFlap;
    inject.seed = 31;
    inject.count = 2;
    options.failures = scenario::make_failure_schedule(
        scenario::build_topology(spec), inject);
    const sim::SimReport report = sim::run_sim_scenario(spec, options);
    const obs::MetricsSnapshot snap = registry.snapshot();
    expect_counters_match(snap, report);
    // Flap events alternate per link, so none is a no-op, and each one
    // flips both directed channels of its duplex link.
    ASSERT_FALSE(options.failures.empty());
    EXPECT_EQ(snap.counter_or("sim.failover.link_events"),
              2 * options.failures.size());
    EXPECT_EQ(snap.counter_or("sim.failover.swaps"),
              report.forwarding.backup_swapped_pairs);
    EXPECT_EQ(snap.counter_or("sim.failover.lazy_repairs"),
              report.forwarding.lazy_repaired_pairs);
    EXPECT_EQ(snap.counter_or("sim.failover.unroutable_pairs"),
              report.forwarding.unroutable_pairs);
    EXPECT_EQ(snap.counter_or("sim.failover.window_recompiles"),
              report.forwarding.window_recompiles);
  }
  {
    SCOPED_TRACE("closed loop");
    const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");
    obs::MetricRegistry registry;
    sim::SimOptions options;
    options.metrics = &registry;
    options.source_rate_mbps = 400.0;
    options.flow_gap_ns = 10'000;
    options.queue_capacity = 16;
    options.ecn_threshold = 12;
    options.transport.enabled = true;
    options.transport.init_cwnd = 4;
    options.transport.max_cwnd = 32;
    options.transport.rto_min_ns = 4'000'000;
    options.transport.rto_max_ns = 50'000'000;
    options.transport.max_retries = 8;
    const sim::SimReport report = sim::run_sim_scenario(spec, options);
    const obs::MetricsSnapshot snap = registry.snapshot();
    expect_counters_match(snap, report);
    const sim::TransportReport& tp = report.transport;
    EXPECT_GT(tp.ecn_cwnd_cuts + tp.drop_cwnd_cuts, 0u);
    EXPECT_EQ(snap.counter_or("sim.injected"), tp.packets_sent);
    EXPECT_EQ(snap.counter_or("sim.tp.sent"), tp.packets_sent);
    EXPECT_EQ(snap.counter_or("sim.tp.retransmits"), tp.retransmits);
    EXPECT_EQ(snap.counter_or("sim.tp.timeouts"), tp.timeouts);
    EXPECT_EQ(snap.counter_or("sim.tp.ecn_cuts"), tp.ecn_cwnd_cuts);
    EXPECT_EQ(snap.counter_or("sim.tp.drop_cuts"), tp.drop_cwnd_cuts);
    EXPECT_EQ(snap.counter_or("sim.tp.spurious"), tp.spurious_deliveries);
    EXPECT_EQ(snap.counter_or("sim.tp.abandoned_flows"), tp.abandoned_flows);
    EXPECT_EQ(snap.counter_or("sim.tp.completed_flows"),
              report.completed_flows);
  }
}

// Everything derived from simulated ticks is deterministic; the only
// wall-clock values in the registry are the compile/replay phase
// timing histograms (compile.*_ns, replay.slice_ns).  Drop those to
// get the view the bit-identical guarantee covers.  sim.fct_ns stays:
// flow completion times are simulated time.
obs::MetricsSnapshot deterministic_view(obs::MetricsSnapshot snap) {
  std::erase_if(snap.entries, [](const obs::MetricValue& m) {
    return m.name.ends_with("_ns") && !m.name.starts_with("sim.");
  });
  return snap;
}

TEST(SimObservability, SnapshotBitIdenticalAcrossRunsAndThreads) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");

  auto snapshot_with_threads = [&spec](unsigned threads) {
    obs::MetricRegistry registry;
    sim::SimOptions options;
    options.metrics = &registry;
    options.compile_threads = threads;
    (void)sim::run_sim_scenario(spec, options);
    return deterministic_view(registry.snapshot());
  };

  const obs::MetricsSnapshot first = snapshot_with_threads(1);
  EXPECT_FALSE(first.entries.empty());
  EXPECT_EQ(first, snapshot_with_threads(1))
      << "same seed, same options: snapshot must be bit-identical";
  EXPECT_EQ(first, snapshot_with_threads(4))
      << "compile threading must not leak into sim metrics";
}

TEST(SimObservability, FailoverSnapshotBitIdenticalAcrossRunsAndThreads) {
  // The failover path adds fabric mutation mid-run (flap = failures AND
  // restores) plus backup swaps; none of it may leak wall clock or
  // thread order into the sim.* metric space or the report.
  const scenario::ScenarioSpec spec = small_spec("torus4x4/uniform");

  auto run_with_threads = [&spec](unsigned threads) {
    obs::MetricRegistry registry;
    sim::SimOptions options;
    options.metrics = &registry;
    options.compile_threads = threads;
    options.protection_k = 1;
    scenario::FailureInjectorParams inject;
    inject.preset = scenario::FailurePreset::kFlap;
    inject.seed = 31;
    inject.count = 2;
    options.failures = scenario::make_failure_schedule(
        scenario::build_topology(spec), inject);
    sim::SimReport report = sim::run_sim_scenario(spec, options);
    report.forwarding.seconds = 0.0;  // the one wall-clock field
    return std::make_pair(deterministic_view(registry.snapshot()), report);
  };

  const auto [first_snap, first_report] = run_with_threads(1);
  EXPECT_FALSE(first_snap.entries.empty());
  EXPECT_GT(first_report.forwarding.rerouted_pairs, 0u);
  EXPECT_EQ(first_report.forwarding.wrong_egress, 0u);

  const auto [again_snap, again_report] = run_with_threads(1);
  EXPECT_EQ(first_snap, again_snap) << "rerun diverged under failover";
  EXPECT_EQ(first_report, again_report);

  const auto [threaded_snap, threaded_report] = run_with_threads(4);
  EXPECT_EQ(first_snap, threaded_snap)
      << "compile threading leaked into failover metrics";
  EXPECT_EQ(first_report, threaded_report);
}

TEST(SimObservability, FlightRecorderIsDeterministic) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");

  auto record = [&spec]() {
    obs::FlightRecorder recorder(/*capacity=*/512, /*sample_every=*/4);
    sim::SimOptions options;
    options.recorder = &recorder;
    (void)sim::run_sim_scenario(spec, options);
    return recorder;
  };

  const obs::FlightRecorder first = record();
  EXPECT_GT(first.total_recorded(), 0u);
  EXPECT_FALSE(first.records().empty());
  const obs::FlightRecorder again = record();
  EXPECT_EQ(first.records(), again.records());
  EXPECT_EQ(first.to_json(), again.to_json());

  // Only sampled flows appear.
  for (const obs::HopRecord& r : first.records()) {
    EXPECT_EQ(r.flow % 4, 0u);
  }
}

TEST(SimObservability, PhaseTraceCoversRunnerStages) {
  const scenario::ScenarioSpec spec = small_spec("ring12/uniform");
  obs::TraceSink sink;
  sim::SimOptions options;
  options.trace = &sink;
  (void)sim::run_sim_scenario(spec, options);

  std::vector<std::string> names;
  for (const obs::TraceEvent& e : sink.events()) names.push_back(e.name);
  for (const char* phase :
       {"sim.wire", "sim.schedule", "sim.simulate", "sim.report",
        "compile.all_pairs"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), phase), names.end())
        << "missing trace phase " << phase;
  }
}

TEST(SimObservability, TelemetryBridgeWritesDeterministicSeries) {
  const scenario::ScenarioSpec spec = small_spec("ring12/uniform");

  auto sample = [&spec]() {
    hp::telemetry::TimeSeriesStore store;
    sim::SimOptions options;
    options.telemetry = &store;
    options.telemetry_period_ns = 50'000;
    (void)sim::run_sim_scenario(spec, options);
    return store;
  };

  hp::telemetry::TimeSeriesStore store = sample();
  const auto names = store.series_names();
  ASSERT_FALSE(names.empty());
  // Gauge series: the global in-flight level plus one depth per link.
  EXPECT_TRUE(store.has_series("sim.in_flight"));
  EXPECT_TRUE(store.has_series("sim.link.00000.queue_depth"));

  // The gauges are refreshed before every sample.  The open loop
  // injects the whole stream before the clock starts, so in-flight only
  // falls, stays positive while an arrival is pending, and bounds the
  // packets queued on all links together.
  const auto in_flight = store.range("sim.in_flight", 0.0, 1e18);
  ASSERT_FALSE(in_flight.empty());
  EXPECT_LE(in_flight.front().value,
            static_cast<double>(spec.traffic.packets));
  double max_queued = 0.0;
  for (std::size_t i = 0; i < in_flight.size(); ++i) {
    EXPECT_GE(in_flight[i].value, 1.0) << "sample " << i;
    if (i > 0) EXPECT_LE(in_flight[i].value, in_flight[i - 1].value);
    double queued = 0.0;
    for (const std::string& name : names) {
      if (name.ends_with(".queue_depth")) {
        queued += store.range(name, 0.0, 1e18).at(i).value;
      }
    }
    EXPECT_LE(queued, in_flight[i].value) << "sample " << i;
    max_queued = std::max(max_queued, queued);
  }
  EXPECT_GT(max_queued, 0.0);

  hp::telemetry::TimeSeriesStore again = sample();
  ASSERT_EQ(again.series_names(), names);
  for (const std::string& name : names) {
    const auto a = store.range(name, 0.0, 1e18);
    const auto b = again.range(name, 0.0, 1e18);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].t_s, b[i].t_s) << name;
      EXPECT_DOUBLE_EQ(a[i].value, b[i].value) << name;
    }
  }
}

TEST(ReplayObservability, MetricsMirrorScenarioReport) {
  // Every replay.* counter equals its ScenarioReport field.
  auto expect_mirror = [](const obs::MetricsSnapshot& snap,
                          const scenario::ScenarioReport& report) {
    EXPECT_EQ(snap.counter_or("replay.packets"), report.packets);
    EXPECT_EQ(snap.counter_or("replay.folds"), report.mod_operations);
    EXPECT_EQ(snap.counter_or("replay.wrong_egress"), report.wrong_egress);
    EXPECT_EQ(snap.counter_or("replay.ttl_expired"), report.ttl_expired);
    EXPECT_EQ(snap.counter_or("replay.dropped_packets"),
              report.dropped_packets);
    EXPECT_EQ(snap.counter_or("replay.segmented_packets"),
              report.segmented_packets);
    EXPECT_EQ(snap.counter_or("replay.segment_swaps"), report.segment_swaps);
    EXPECT_EQ(snap.counter_or("replay.rerouted_pairs"),
              report.rerouted_pairs);
    EXPECT_EQ(snap.counter_or("replay.failover.swaps"),
              report.backup_swapped_pairs);
    EXPECT_EQ(snap.counter_or("replay.failover.window_recompiles"),
              report.window_recompiles);
    EXPECT_EQ(snap.counter_or("replay.failover.lazy_repairs"),
              report.lazy_repaired_pairs);
    EXPECT_EQ(snap.counter_or("replay.failover.packets_lost"),
              report.failover_packets_lost);
    EXPECT_EQ(snap.counter_or("replay.failover.unroutable_pairs"),
              report.unroutable_pairs);
    EXPECT_GT(snap.counter_or("compile.routes"), 0u);
    // One wall-clock sample per worker slice.
    const obs::MetricValue* slice_ns = snap.find("replay.slice_ns");
    ASSERT_NE(slice_ns, nullptr);
    EXPECT_EQ(slice_ns->histogram.count, snap.counter_or("replay.slices"));
  };

  {
    SCOPED_TRACE("failure-free torus");
    const scenario::ScenarioSpec spec = small_spec("torus4x4/uniform");
    obs::MetricRegistry registry;
    scenario::BuiltFabric fabric(scenario::build_topology(spec));
    fabric.set_observability(&registry, nullptr);
    scenario::PacketStream stream =
        scenario::generate_traffic(fabric, spec.traffic);

    scenario::RunnerOptions options;
    options.threads = 2;
    options.metrics = &registry;
    const scenario::ScenarioReport report =
        scenario::ScenarioRunner(options).run(fabric, stream);

    const obs::MetricsSnapshot snap = registry.snapshot();
    expect_mirror(snap, report);
    // No failure: the whole stream is one epoch on both workers.
    EXPECT_EQ(snap.counter_or("replay.epochs"), 1u);
    EXPECT_EQ(snap.counter_or("replay.slices"), 2u);
    EXPECT_EQ(snap.counter_or("replay.failover.failures"), 0u);
    EXPECT_EQ(snap.counter_or("replay.failover.restores"), 0u);
  }

  {
    // A flapping ring with backups: swaps, recompiles, severed lanes and
    // dropped packets all show up in one run.
    SCOPED_TRACE("flapping ring");
    const scenario::ScenarioSpec spec = small_spec("ring12/uniform");
    obs::MetricRegistry registry;
    scenario::BuiltFabric fabric(scenario::build_topology(spec));
    fabric.set_observability(&registry, nullptr);
    scenario::PacketStream stream =
        scenario::generate_traffic(fabric, spec.traffic);

    scenario::RunnerOptions options;
    options.threads = 2;
    options.metrics = &registry;
    options.protection_k = 1;
    scenario::FailureInjectorParams inject;
    inject.preset = scenario::FailurePreset::kFlap;
    inject.seed = 31;
    inject.count = 2;
    options.failures =
        scenario::make_failure_schedule(fabric.topology(), inject);
    const std::size_t total = stream.size();
    const scenario::ScenarioReport report =
        scenario::ScenarioRunner(options).run(fabric, stream);

    EXPECT_GT(report.dropped_packets, 0u);
    EXPECT_GT(report.backup_swapped_pairs, 0u);

    const obs::MetricsSnapshot snap = registry.snapshot();
    expect_mirror(snap, report);
    // Flap events alternate per link, so every one of them is played.
    std::uint64_t failures = 0;
    for (const scenario::LinkFailure& event : options.failures) {
      if (!event.restore) ++failures;
    }
    EXPECT_GT(failures, 0u);
    EXPECT_EQ(snap.counter_or("replay.failover.failures"), failures);
    EXPECT_EQ(snap.counter_or("replay.failover.restores"),
              options.failures.size() - failures);
    // Without a loss window the stream is cut only at event positions:
    // one epoch per distinct non-zero cut (the stream end included),
    // each replayed on min(2, its length) workers.
    std::set<std::size_t> cuts{total};
    for (const scenario::LinkFailure& event : options.failures) {
      const auto at = static_cast<std::size_t>(
          std::llround(event.at_fraction * static_cast<double>(total)));
      if (at > 0) cuts.insert(std::min(at, total));
    }
    std::uint64_t slices = 0;
    std::size_t begin = 0;
    for (const std::size_t cut : cuts) {
      slices += std::min<std::size_t>(2, cut - begin);
      begin = cut;
    }
    EXPECT_GT(cuts.size(), 1u);
    EXPECT_EQ(snap.counter_or("replay.epochs"), cuts.size());
    EXPECT_EQ(snap.counter_or("replay.slices"), slices);
  }
}

}  // namespace
