// Packet-level sim sweep CLI: run registry scenarios through the
// event-driven simulator and print congestion metrics (FCT p50/p95,
// drop rate, deepest queue, link utilization).
//
//   sim_sweep --list
//   sim_sweep --scenario torus4x4/hotspot
//   sim_sweep --scenario leaf_spine_4x8/incast --rate 400 --gap 10000
//   sim_sweep                 # sweep every registry scenario
//
// Knobs (all optional): --packets N, --rate MBPS (per-source line
// rate), --gap NS (inter-arrival of flow starts), --queue N (egress
// FIFO capacity), --ecn N (mark threshold, 0 disables), --flow N
// (packets per flow), --seed N.
//
// Failover knobs (all optional): --fail-schedule
// single|storm|flap|srlg generates a deterministic link-event schedule
// per scenario topology (--fail-seed N, --fail-count N tune it);
// --protect K pre-installs K link-disjoint backups per pair, shrinking
// the dead-wire loss window from the recompile latency to the
// switchover latency.
//
// Transport knobs (all optional): --transport switches the run from
// open-loop schedule replay to the closed-loop sender state machine
// (AIMD windows, ECN cuts, retransmit-on-drop, RTO backoff); --cwnd N
// / --max-cwnd N set the initial/max congestion window, --rto-min NS /
// --rto-max NS bound the retransmission timeout, --max-retries N caps
// retransmissions per sequence before a flow is abandoned.
//
// Observability outputs (all optional):
//   --json PATH    hp-report-v1 JSON: per scenario run, its report under
//                  the run name and its metric snapshot under
//                  "<run name>#metrics"
//   --trace PATH   chrome://tracing JSON of the runner phases
//   --flight PATH  hp-flight-v1 JSON from the sampled hop recorder

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "sim/runner.hpp"

namespace scenario = hp::scenario;
namespace sim = hp::sim;

namespace {

void print_report(const std::string& name, const sim::SimReport& report) {
  std::printf(
      "%-28s %8zu pkts  %5zu drop (%5.1f%%)  fct p50 %8.1fus  "
      "p95 %8.1fus  q_max %3u  util %4.2f  ecn %5zu  [%s]\n",
      name.c_str(), report.forwarding.packets,
      report.forwarding.dropped_packets, report.drop_rate() * 100.0,
      static_cast<double>(report.fct_p50_ns()) / 1e3,
      static_cast<double>(report.fct_p95_ns()) / 1e3,
      report.max_queue_depth, report.max_link_utilization, report.ecn_marked,
      report.forwarding.fold_kernel_name());
  if (report.transport.enabled) {
    std::printf(
        "%-28s transport: %zu/%zu flows done  %llu abandoned  "
        "%llu rtx  %llu timeouts  goodput %5.1f%%\n",
        "", report.completed_flows, report.flows,
        static_cast<unsigned long long>(report.transport.abandoned_flows),
        static_cast<unsigned long long>(report.transport.retransmits),
        static_cast<unsigned long long>(report.transport.timeouts),
        report.goodput_fraction() * 100.0);
  }
  const auto& fwd = report.forwarding;
  if (fwd.backup_swapped_pairs + fwd.failover_packets_lost +
          fwd.unroutable_pairs + fwd.window_recompiles + fwd.rerouted_pairs !=
      0) {
    std::printf("%-28s failover: %zu rerouted (%zu swapped)  %zu lost"
                "  %zu unroutable  %zu window recompiles\n",
                "", fwd.rerouted_pairs, fwd.backup_swapped_pairs,
                fwd.failover_packets_lost, fwd.unroutable_pairs,
                fwd.window_recompiles);
  }
}

/// (entry name, hp-report-v1 json) pairs collected for --json.
using JsonEntries = std::vector<std::pair<std::string, std::string>>;

int run_one(const scenario::ScenarioSpec& spec, const sim::SimOptions& options,
            std::size_t packets_override, std::uint64_t seed_override,
            const std::optional<scenario::FailureInjectorParams>& inject,
            JsonEntries* json_out) {
  scenario::ScenarioSpec spec_copy = spec;
  if (packets_override != 0) spec_copy.traffic.packets = packets_override;
  if (seed_override != 0) spec_copy.traffic.seed = seed_override;
  sim::SimOptions run_options = options;
  // Each run gets its own registry, so its snapshot is that run's alone.
  hp::obs::MetricRegistry registry;
  if (json_out != nullptr) run_options.metrics = &registry;
  if (inject.has_value()) {
    // Deterministic per-topology events (the schedule is a pure
    // function of topology + params, so every run reproduces).
    run_options.failures = scenario::make_failure_schedule(
        scenario::build_topology(spec_copy), *inject);
  }
  const sim::SimReport report = sim::run_sim_scenario(spec_copy, run_options);
  print_report(spec_copy.name, report);
  if (json_out != nullptr) {
    json_out->emplace_back(spec_copy.name, hp::obs::to_json(report));
    json_out->emplace_back(spec_copy.name + "#metrics",
                           hp::obs::to_json(registry.snapshot()));
  }
  return report.forwarding.wrong_egress == 0 ? 0 : 1;
}

/// One JSON object keyed by scenario name; values are already-valid
/// hp-report-v1 documents, so this is plain concatenation.
void write_json_entries(const std::string& path, const JsonEntries& entries) {
  std::string out = "{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i != 0) out += ",";
    out += "\n  ";
    hp::obs::JsonWriter::escape_to(out, entries[i].first);
    out += ": ";
    out += entries[i].second;
  }
  out += "\n}\n";
  hp::obs::write_text_file(path, out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  sim::SimOptions options;
  std::size_t packets = 0;
  std::uint64_t seed = 0;
  std::optional<scenario::FailureInjectorParams> inject;
  auto injector = [&]() -> scenario::FailureInjectorParams& {
    if (!inject.has_value()) inject.emplace();
    return *inject;
  };
  bool list = false;
  std::string json_path;
  std::string trace_path;
  std::string flight_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--scenario") {
      name = next();
    } else if (arg == "--packets") {
      packets = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--rate") {
      options.source_rate_mbps = std::strtod(next(), nullptr);
    } else if (arg == "--gap") {
      options.flow_gap_ns = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--queue") {
      options.queue_capacity =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--ecn") {
      options.ecn_threshold =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--flow") {
      options.flow_packets =
          static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--transport") {
      options.transport.enabled = true;
    } else if (arg == "--cwnd") {
      options.transport.init_cwnd =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--max-cwnd") {
      options.transport.max_cwnd =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--rto-min") {
      options.transport.rto_min_ns = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--rto-max") {
      options.transport.rto_max_ns = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--max-retries") {
      options.transport.max_retries =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--fail-schedule") {
      const char* preset_name = next();
      const auto preset = scenario::parse_failure_preset(preset_name);
      if (!preset.has_value()) {
        std::fprintf(stderr,
                     "bad --fail-schedule %s (want single|storm|flap|srlg)\n",
                     preset_name);
        return 2;
      }
      injector().preset = *preset;
    } else if (arg == "--fail-seed") {
      injector().seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--fail-count") {
      injector().count =
          static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--protect") {
      options.protection_k =
          static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--flight") {
      flight_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: sim_sweep [--list] [--scenario NAME] [--packets N] "
                   "[--rate MBPS] [--gap NS] [--queue N] [--ecn N] [--flow N] "
                   "[--seed N] [--transport] [--cwnd N] [--max-cwnd N] "
                   "[--rto-min NS] [--rto-max NS] [--max-retries N] "
                   "[--fail-schedule single|storm|flap|srlg] "
                   "[--fail-seed N] [--fail-count N] [--protect K] "
                   "[--json PATH] [--trace PATH] [--flight PATH]\n");
      return arg == "--help" ? 0 : 2;
    }
  }

  hp::obs::TraceSink trace_sink;
  hp::obs::FlightRecorder recorder;
  JsonEntries json_entries;
  JsonEntries* json_out = json_path.empty() ? nullptr : &json_entries;
  if (!trace_path.empty()) options.trace = &trace_sink;
  if (!flight_path.empty()) options.recorder = &recorder;

  if (list) {
    for (const auto& spec : scenario::builtin_scenarios()) {
      std::printf("%s\n", spec.name.c_str());
    }
    return 0;
  }

  int status = 0;
  if (!name.empty()) {
    const scenario::ScenarioSpec* spec = scenario::find_scenario(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown scenario %s (try --list)\n", name.c_str());
      return 2;
    }
    status = run_one(*spec, options, packets, seed, inject, json_out);
  } else {
    for (const auto& spec : scenario::builtin_scenarios()) {
      status |= run_one(spec, options, packets, seed, inject, json_out);
    }
  }

  if (json_out != nullptr) write_json_entries(json_path, json_entries);
  if (!trace_path.empty()) {
    trace_sink.write(trace_path);
    std::printf("wrote %s\n", trace_path.c_str());
  }
  if (!flight_path.empty()) {
    hp::obs::write_text_file(flight_path, recorder.to_json());
    std::printf("wrote %s\n", flight_path.c_str());
  }
  return status;
}
