// Scenario sweep CLI: list the registry, replay a named scenario, or
// sweep everything, with optional thread counts and a link failure.
//
//   scenario_sweep --list
//   scenario_sweep --scenario torus4x4/hotspot --threads 4
//   scenario_sweep --scenario ring12/uniform --fail r0:r1@0.5
//   scenario_sweep --fail-schedule storm --protect 1   # injected failover
//   scenario_sweep                 # sweep all scenarios at 1 and 4 threads
//
// Failover knobs (all optional): --fail a:b@frac names one link by hand;
// --fail-schedule single|storm|flap|srlg generates a deterministic schedule
// per scenario topology (--fail-seed N, --fail-count N tune it);
// --protect K pre-installs K link-disjoint backups per pair;
// --loss-window N charges each recompiled pair N packets of loss.
//
// Observability outputs (all optional):
//   --json PATH    hp-report-v1 JSON: per scenario run, its report under
//                  the run name ("name@tN") and its metric snapshot
//                  under "name@tN#metrics"
//   --trace PATH   chrome://tracing JSON of replay epochs and repairs

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace scenario = hp::scenario;

namespace {

void print_report(const std::string& name, unsigned threads,
                  const scenario::ScenarioReport& report) {
  std::printf("%-28s t=%u  %9zu pkts  %10zu mods  %5zu wrong  %5zu dropped"
              "  %4zu rerouted  %8.2f Mpkt/s  [%s]\n",
              name.c_str(), threads, report.packets, report.mod_operations,
              report.wrong_egress, report.dropped_packets,
              report.rerouted_pairs, report.packets_per_sec() / 1e6,
              report.fold_kernel_name());
  if (report.backup_swapped_pairs + report.failover_packets_lost +
          report.unroutable_pairs + report.window_recompiles !=
      0) {
    std::printf("%-28s      failover: %zu swapped  %zu lost  %zu unroutable"
                "  %zu window recompiles  %zu lazy\n",
                "", report.backup_swapped_pairs, report.failover_packets_lost,
                report.unroutable_pairs, report.window_recompiles,
                report.lazy_repaired_pairs);
  }
}

/// (entry name, hp-report-v1 json) pairs collected for --json.
using JsonEntries = std::vector<std::pair<std::string, std::string>>;

int run_one(const scenario::ScenarioSpec& spec,
            const scenario::RunnerOptions& options,
            const std::optional<scenario::FailureInjectorParams>& inject,
            JsonEntries* json_out) {
  // Each run gets its own registry, so its snapshot is that run's alone;
  // declared first, it outlives the fabric that points at it.
  hp::obs::MetricRegistry registry;
  // Build once so a failure schedule acts on the same fabric/stream.
  scenario::BuiltFabric fabric(scenario::build_topology(spec));
  scenario::PacketStream stream = scenario::generate_traffic(fabric, spec.traffic);
  scenario::RunnerOptions run_options = options;
  if (json_out != nullptr) run_options.metrics = &registry;
  if (inject.has_value()) {
    // The schedule is a pure function of (topology, params), so each
    // sweep entry gets its own deterministic events.
    const auto schedule =
        scenario::make_failure_schedule(fabric.topology(), *inject);
    run_options.failures.insert(run_options.failures.end(), schedule.begin(),
                                schedule.end());
    std::stable_sort(run_options.failures.begin(), run_options.failures.end(),
                     [](const scenario::LinkFailure& lhs,
                        const scenario::LinkFailure& rhs) {
                       return lhs.at_fraction < rhs.at_fraction;
                     });
  }
  const auto report = scenario::ScenarioRunner(run_options).run(fabric, stream);
  print_report(spec.name, run_options.threads, report);
  if (json_out != nullptr) {
    const std::string run = spec.name + "@t" + std::to_string(options.threads);
    json_out->emplace_back(run, hp::obs::to_json(report));
    json_out->emplace_back(run + "#metrics",
                           hp::obs::to_json(registry.snapshot()));
  }
  return report.wrong_egress == 0 ? 0 : 1;
}

/// One JSON object keyed by run name; values are already-valid
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
  scenario::RunnerOptions options;
  std::vector<std::string> failures;
  std::optional<scenario::FailureInjectorParams> inject;
  auto injector = [&]() -> scenario::FailureInjectorParams& {
    if (!inject.has_value()) inject.emplace();
    return *inject;
  };
  bool list = false;
  std::string json_path;
  std::string trace_path;
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
    } else if (arg == "--threads") {
      options.threads = static_cast<unsigned>(std::atoi(next()));
    } else if (arg == "--fail") {
      failures.emplace_back(next());  // "<nodeA>:<nodeB>@<fraction>"
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
      options.protection_k = static_cast<unsigned>(std::atoi(next()));
    } else if (arg == "--loss-window") {
      options.loss_window_per_recompile =
          static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: scenario_sweep [--list] [--scenario NAME] "
                   "[--threads N] [--fail a:b@frac] "
                   "[--fail-schedule single|storm|flap|srlg] [--fail-seed N] "
                   "[--fail-count N] [--protect K] [--loss-window N] "
                   "[--json PATH] [--trace PATH]\n");
      return arg == "--help" ? 0 : 2;
    }
  }

  hp::obs::TraceSink trace_sink;
  JsonEntries json_entries;
  JsonEntries* json_out = json_path.empty() ? nullptr : &json_entries;
  if (!trace_path.empty()) options.trace = &trace_sink;

  if (list) {
    for (const auto& spec : scenario::builtin_scenarios()) {
      std::printf("%s\n", spec.name.c_str());
    }
    return 0;
  }

  if (!name.empty()) {
    const scenario::ScenarioSpec* spec = scenario::find_scenario(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown scenario %s (try --list)\n", name.c_str());
      return 2;
    }
    // Failure schedule entries resolve against the spec's topology.
    const auto topo = scenario::build_topology(*spec);
    for (const std::string& f : failures) {
      const auto colon = f.find(':');
      const auto at = f.find('@');
      if (colon == std::string::npos || at == std::string::npos || at < colon) {
        std::fprintf(stderr, "bad --fail %s (want a:b@frac)\n", f.c_str());
        return 2;
      }
      scenario::LinkFailure failure;
      try {
        failure.a = topo.index_of(f.substr(0, colon));
        failure.b = topo.index_of(f.substr(colon + 1, at - colon - 1));
      } catch (const std::out_of_range& e) {
        std::fprintf(stderr, "bad --fail %s: %s\n", f.c_str(), e.what());
        return 2;
      }
      char* end = nullptr;
      failure.at_fraction = std::strtod(f.c_str() + at + 1, &end);
      if (end == f.c_str() + at + 1 || *end != '\0' ||
          failure.at_fraction < 0.0 || failure.at_fraction > 1.0) {
        std::fprintf(stderr, "bad --fail %s: fraction must be in [0,1]\n",
                     f.c_str());
        return 2;
      }
      options.failures.push_back(failure);
    }
    if (options.threads == 0) options.threads = 1;
    int status = 0;
    try {
      status = run_one(*spec, options, inject, json_out);
    } catch (const std::exception& e) {
      // e.g. a --fail pair that exists but is not linked.
      std::fprintf(stderr, "scenario failed: %s\n", e.what());
      return 2;
    }
    if (json_out != nullptr) write_json_entries(json_path, json_entries);
    if (!trace_path.empty()) {
      trace_sink.write(trace_path);
      std::printf("wrote %s\n", trace_path.c_str());
    }
    return status;
  }

  int status = 0;
  for (const auto& spec : scenario::builtin_scenarios()) {
    for (const unsigned threads : {1u, 4u}) {
      scenario::RunnerOptions sweep = options;
      sweep.threads = threads;
      sweep.failures.clear();  // hand-named links only bind to --scenario
      status |= run_one(spec, sweep, inject, json_out);
    }
  }
  if (json_out != nullptr) write_json_entries(json_path, json_entries);
  if (!trace_path.empty()) {
    trace_sink.write(trace_path);
    std::printf("wrote %s\n", trace_path.c_str());
  }
  return status;
}
