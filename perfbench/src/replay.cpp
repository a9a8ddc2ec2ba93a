// replay_torus16: the data-plane fast path.
//
// A 16x16 torus has deep shortest paths (about nine folds per packet)
// and most of its uniform pairs need multi-segment routes, so the fold
// kernels and the segmented walk do nearly all the work of
// ScenarioRunner::run.  Simulation, transport and failover are
// bypassed.  One thread, because this host cannot resolve thread
// scaling (see README.md).

#include <algorithm>
#include <memory>
#include <optional>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "polka/fastpath.hpp"
#include "scenario/topologies.hpp"
#include "scenario/traffic.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sc = hp::scenario;
using hp::obs::TraceScope;
using hp::obs::TraceSink;

constexpr unsigned kTorusSide = 16;
constexpr std::size_t kStreamPackets = std::size_t{1} << 20;
constexpr std::size_t kMaxPairs = 2048;
/// Set-ups per run, repeated (untimed) between timed calls so that
/// their samples spread over the whole run.
constexpr std::size_t kSetups = 40;
constexpr std::size_t kBatch = 1024;  // the runner's default batch

struct Replay {
  std::unique_ptr<sc::BuiltFabric> fabric;
  sc::PacketStream stream;
  double setup_s = 0.0;
  double compile_s = 0.0;
  double traffic_s = 0.0;
  std::size_t routes = 0;
  std::size_t crt_steps = 0;
};

Replay set_up(std::uint64_t seed, TraceSink* sink) {
  Replay r;
  const Clock::time_point start = Clock::now();
  TraceScope root(sink, "bench.setup", "bench");
  {
    TraceScope span(sink, "scenario.fabric_builder.build", "bench");
    r.fabric = std::make_unique<sc::BuiltFabric>(
        sc::make_torus(kTorusSide, kTorusSide));
  }
  r.fabric->set_observability(nullptr, sink);
  r.compile_s = timed([&] {
    TraceScope span(sink, "scenario.fabric_builder.compile_all_pairs",
                    "bench");
    r.routes = r.fabric->compile_all_pairs(1);
  });
  r.crt_steps = r.fabric->compile_stats().crt_steps;
  sc::TrafficParams params;
  params.pattern = sc::TrafficPattern::kUniformRandom;
  params.packets = kStreamPackets;
  params.seed = seed;
  params.max_pairs = kMaxPairs;
  r.traffic_s = timed([&] {
    TraceScope span(sink, "scenario.traffic.generate_traffic", "bench");
    r.stream = sc::generate_traffic(*r.fabric, params);
  });
  {
    // The flattened fast-path view is built lazily on first use; build
    // it here so no timed call pays for it.
    TraceScope span(sink, "polka.compiled_fabric.build", "bench");
    (void)r.fabric->compiled();
  }
  r.fabric->set_observability(nullptr, nullptr);
  r.setup_s = seconds_between(start, Clock::now());
  return r;
}

/// One timed call.  The runner hands only non-null taps to the fabric,
/// so they are (re)set here explicitly for every call.
sc::ScenarioReport replay_once(Replay& r, TraceSink* sink,
                               hp::obs::MetricRegistry* metrics) {
  sc::RunnerOptions options;
  options.threads = 1;
  options.trace = sink;
  options.metrics = metrics;
  r.fabric->set_observability(metrics, sink);
  TraceScope op(sink, "bench.op", "bench");
  TraceScope call(sink, "scenario.runner.run", "bench");
  return sc::ScenarioRunner(options).run(*r.fabric, r.stream);
}

/// The stream split the way the runner batches it: single-label
/// packets for forward_batch, multi-segment ones for
/// forward_batch_segmented.
struct KernelInput {
  std::vector<hp::polka::RouteLabel> labels;
  std::vector<std::uint32_t> firsts;
  std::vector<hp::polka::SegmentRef> refs;
  std::vector<std::uint32_t> seg_firsts;
};

KernelInput split(const sc::PacketStream& s) {
  KernelInput in;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::uint32_t lane = s.pair[i];
    if (lane < s.seg_refs.size() && s.seg_refs[lane].label_count > 1) {
      in.refs.push_back(s.seg_refs[lane]);
      in.seg_firsts.push_back(s.ingress[i]);
    } else {
      in.labels.push_back(s.labels[i]);
      in.firsts.push_back(s.ingress[i]);
    }
  }
  return in;
}

/// The bare fold kernels over the whole stream, in batches of the
/// runner's size; returns the folds performed.
std::size_t forward_all(const Replay& r, const KernelInput& in,
                        std::vector<hp::polka::PacketResult>& results,
                        TraceSink* sink) {
  TraceScope span(sink, "polka.forward_batch", "bench");
  const hp::polka::CompiledFabric& fast = r.fabric->compiled();
  std::size_t folds = 0;
  for (std::size_t at = 0; at < in.labels.size(); at += kBatch) {
    const std::size_t n = std::min(kBatch, in.labels.size() - at);
    folds += fast.forward_batch(std::span(in.labels).subspan(at, n),
                                std::span(in.firsts).subspan(at, n),
                                std::span(results).first(n));
  }
  for (std::size_t at = 0; at < in.refs.size(); at += kBatch) {
    const std::size_t n = std::min(kBatch, in.refs.size() - at);
    folds += fast.forward_batch_segmented(
        r.stream.seg_labels, r.stream.seg_waypoints,
        std::span(in.refs).subspan(at, n),
        std::span(in.seg_firsts).subspan(at, n), std::span(results).first(n));
  }
  return folds;
}

/// The report with its one wall-clock field cleared: everything else
/// must repeat exactly from call to call.
sc::ScenarioReport outcome(sc::ScenarioReport report) {
  report.seconds = 0.0;
  return report;
}

}  // namespace

WorkloadResult run_replay(const RunConfig& config, TraceSink* trace) {
  WorkloadResult out;

  std::vector<double> setup_s;
  std::vector<double> compile_s;
  std::vector<double> traffic_s;
  Replay r;
  auto set_up_again = [&](TraceSink* sink) {
    r = Replay{};  // release the previous set-up before building anew
    r = set_up(config.seed, sink);
    setup_s.push_back(r.setup_s);
    compile_s.push_back(r.compile_s);
    traffic_s.push_back(r.traffic_s);
  };
  set_up_again(trace);
  const double packets = static_cast<double>(r.stream.size());

  std::optional<sc::ScenarioReport> first;
  auto check = [&](const sc::ScenarioReport& report) {
    out.attempted += report.packets;
    out.failed += check_replay(report, r.stream.size(), out);
    if (!first) first = outcome(report);
    out.gate(outcome(report) == *first,
             "replay report differs between identical calls");
  };

  // The closed loop: untraced calls give the end-to-end numbers.  A
  // traced run alternates them with calls recording spans (program
  // phases nested), the per-layer breakdown and the tracing overhead.
  const double loop_s =
      trace != nullptr ? config.seconds * 0.65 : config.seconds;
  Pacer setups(loop_s, kSetups);
  auto untraced_call = [&](auto) {
    check(replay_once(r, nullptr, nullptr));
  };
  auto prepare = [&](auto) {
    if (setups.due()) set_up_again(nullptr);
  };
  std::vector<double> calls;
  std::vector<double> traced;
  if (trace == nullptr) {
    calls = loop_for(loop_s, 3, prepare, untraced_call);
  } else {
    TraceScope root(trace, "bench.measure", "bench");
    Paired p = alternate(loop_s, 3, prepare, untraced_call, [&](auto) {
      check(replay_once(r, trace, nullptr));
    });
    calls = std::move(p.a);
    traced = std::move(p.b);
  }
  out.table.push_back({"setup_s", fastest(setup_s), "s"});
  out.table.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
  out.table.push_back({"fail_frac",
                       finite_or_zero(static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)),
                       "ratio"});
  // Every call repeats the same work: the fastest is its cost with the
  // least interference from the rest of the host.
  const double best_s = fastest(calls);
  out.table.push_back({"replay_mpps", packets / best_s / 1e6, "Mpkt/s"});
  out.notes.push_back("set-up: " + describe(setup_s, 1e3, "ms"));
  out.notes.push_back("replay call of " + std::to_string(r.stream.size()) +
                      " packets: " + describe(calls, 1e3, "ms"));

  if (trace == nullptr) {
    out.values["setup_s"] = fastest(setup_s);
    out.values["peak_rss_mb"] = peak_rss_mib();
    out.values["ops_per_s"] = packets / best_s;
    return out;
  }

  // Metrics overhead: calls alternate no registry and a registry.
  hp::obs::MetricRegistry registry;
  const Paired registry_calls = alternate(
      config.seconds * 0.25, 3, untraced_call,
      [&](auto) { check(replay_once(r, nullptr, &registry)); });
  report_metrics_overhead(registry_calls.b, registry_calls.a, out);
  std::vector<double> export_ms;
  for (int i = 0; i < 5; ++i) {
    export_ms.push_back(1e3 * timed([&] {
                          TraceScope span(trace, "obs.to_json", "bench");
                          const std::string json = hp::obs::to_json(*first);
                          out.gate(!json.empty(), "empty report export");
                        }));
  }
  // Runner against bare kernels: calls alternate the two over the same
  // stream, so both see the same host.
  const KernelInput in = split(r.stream);
  std::vector<hp::polka::PacketResult> results(kBatch);
  std::size_t kernel_folds = 0;
  const Paired kernel_calls =
      alternate(config.seconds * 0.1, 3, untraced_call, [&](auto) {
        kernel_folds = forward_all(r, in, results, trace);
      });
  out.gate(kernel_folds == first->mod_operations,
           "bare kernels folded a different count than the runner");
  r.fabric->set_observability(nullptr, nullptr);

  const double folds = static_cast<double>(first->mod_operations);
  const double runner_s = fastest(kernel_calls.a);
  const double kernel_s = fastest(kernel_calls.b);
  auto& v = out.values;
  v["compile.all_pairs_s"] = fastest(compile_s);
  v["compile.ns_per_route"] =
      fastest(compile_s) * 1e9 / static_cast<double>(r.routes);
  v["compile.crt_steps"] = static_cast<double>(r.crt_steps);
  v["traffic.generate_s"] = fastest(traffic_s);
  v["traffic.ns_per_packet"] = fastest(traffic_s) * 1e9 / packets;
  v["replay.ns_per_packet"] = best_s * 1e9 / packets;
  v["replay.ns_per_fold"] = best_s * 1e9 / folds;
  v["replay.folds_per_packet"] = folds / packets;
  v["replay.segmented_share"] =
      static_cast<double>(first->segmented_packets) / packets;
  v["polka.kernel_ns_per_fold"] = kernel_s * 1e9 / folds;
  v["replay.overhead_ns_per_packet"] = (runner_s - kernel_s) * 1e9 / packets;
  v["obs.export_ms"] = median(export_ms);
  report_layers(trace->events(), best_s, fastest(traced), out);
  return out;
}

}  // namespace perfbench
