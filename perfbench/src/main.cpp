// perfbench: one benchmark for the PolKA fabric.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a human-readable report (machine block, the workload's
// end-to-end table, notes, and on traced runs the per-layer table),
// then, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics.  Untraced runs report the end-to-end
// metrics, traced runs the per-layer ones; a traced run also writes its
// spans (chrome://tracing format) and its report into .bench_out/ at the
// repository root.  A self-test of the benchmark's own logic runs
// before every workload.  Exits 1 when an output gate fails, 2 on bad
// usage, 3 when the self-test fails, 4 on a build that is not an
// optimized Release build.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <thread>

#include "obs/export.hpp"
#include "polka/fastpath.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunConfig;
using perfbench::WorkloadResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric sets of BENCHMARK.json, in its order.  A workload that
// bypasses a layer reports that layer's metrics as 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ops_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"compile.all_pairs_s", "s"},
    {"compile.ns_per_route", "ns"},
    {"compile.crt_steps", "count"},
    {"protect.enable_s", "s"},
    {"protect.backups", "count"},
    {"protect.ns_per_backup", "ns"},
    {"failover.apply_us", "us"},
    {"failover.repair_us", "us"},
    {"failover.restore_us", "us"},
    {"failover.swapped_pairs", "count"},
    {"failover.repaired_pairs", "count"},
    {"failover.window_recompiles", "count"},
    {"failover.unroutable_pairs", "count"},
    {"traffic.generate_s", "s"},
    {"traffic.ns_per_packet", "ns"},
    {"replay.ns_per_packet", "ns"},
    {"replay.ns_per_fold", "ns"},
    {"replay.folds_per_packet", "count"},
    {"replay.segmented_share", "ratio"},
    {"polka.kernel_ns_per_fold", "ns"},
    {"replay.overhead_ns_per_packet", "ns"},
    {"sim.schedule_s", "s"},
    {"sim.schedule_ns_per_packet", "ns"},
    {"sim.report_s", "s"},
    {"sim.simulate_s", "s"},
    {"sim.simulate_ns_per_hop", "ns"},
    {"sim.max_queue_depth", "count"},
    {"sim.tail_drops", "count"},
    {"sim.ecn_marked", "count"},
    {"tp.sent", "count"},
    {"tp.retransmits", "count"},
    {"tp.timeouts", "count"},
    {"tp.spurious", "count"},
    {"tp.ecn_cuts", "count"},
    {"tp.useful_frac", "ratio"},
    {"obs.export_ms", "ms"},
    {"obs.metrics_overhead", "ratio"},
    {"obs.metrics_overhead_spread", "ratio"},
    {"trace.overhead", "ratio"},
};

/// The metrics of the final JSON line.
std::span<const MetricSpec> metric_set(bool trace) {
  if (trace) return kPerLayer;
  return kEndToEnd;
}

constexpr std::string_view kWorkloads[] = {
    "replay_torus16", "sim_open_fattree8", "sim_incast_closed",
    "reroute_churn"};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

/// The machine block: which fold kernel and build produced the numbers,
/// so runs of different kernels or builds are never compared.
std::string machine_json() {
  hp::obs::JsonWriter w;
  w.begin_object();
  w.key("fold_kernel");
  w.value(hp::polka::to_string(hp::polka::default_fold_kernel()));
  w.key("clmul_supported");
  w.value(hp::polka::clmul_fold_supported());
  w.key("HP_FORCE_TABLE_FOLD");
  w.value(hp::polka::table_fold_forced());
  w.key("nproc");
  w.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("compiler");
  w.value(HP_BENCH_COMPILER);
  w.key("build_type");
  w.value(HP_BENCH_BUILD_TYPE);
  w.end_object();
  return std::move(w).str();
}

bool optimized_release_build() {
#ifdef NDEBUG
  return std::string_view(HP_BENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

std::string result_json(const WorkloadResult& r, bool trace) {
  hp::obs::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(r.gate_failures.empty());
  w.key("attempted");
  w.value(r.attempted);
  w.key("failed");
  w.value(r.failed);
  w.key("metrics");
  w.begin_object();
  for (const MetricSpec& m : metric_set(trace)) {
    const auto it = r.values.find(m.name);
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(it == r.values.end() ? 0.0 : it->second);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

/// Fails the run on a metric the workload reported that the metric set
/// lacks (a typo would otherwise read as a bypassed layer).
void check_names(bool trace, WorkloadResult& r) {
  for (const auto& [name, value] : r.values) {
    bool known = false;
    for (const MetricSpec& m : metric_set(trace)) {
      known = known || name == m.name;
    }
    r.gate(known, "benchmark reported unlisted metric " + name);
  }
}

std::string human_report(const RunConfig& config, const WorkloadResult& r) {
  std::string text = "workload " + config.workload + " seed " +
                     std::to_string(config.seed) +
                     (config.trace ? " (traced)\n" : "\n");
  char line[200];
  for (const perfbench::Metric& m : r.table) {
    std::snprintf(line, sizeof line, "  %-18s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    text += line;
  }
  for (const std::string& note : r.notes) text += note + "\n";
  if (config.trace) {
    text += "per-layer metrics:\n";
    for (const MetricSpec& m : kPerLayer) {
      const auto it = r.values.find(m.name);
      std::snprintf(line, sizeof line, "  %-30s %16.6g %s\n", m.name,
                    it == r.values.end() ? 0.0 : it->second, m.unit);
      text += line;
    }
  }
  for (const std::string& failure : r.gate_failures) {
    text += "GATE FAILED: " + failure + "\n";
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else {
      return usage("unknown option");
    }
  }

  std::printf("machine: %s\n", machine_json().c_str());
  if (!optimized_release_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing a build that is not Release with "
                 "NDEBUG; numbers from it are not comparable\n");
    return 4;
  }
  try {
    if (perfbench::run_self_test() != 0) return 3;
    bool known = false;
    for (const std::string_view w : kWorkloads) {
      known = known || w == config.workload;
    }
    if (!known) return usage("unknown workload");
    if (!have_seed || !(config.seconds > 0.0)) {
      return usage("--seed and --seconds > 0 are required");
    }

    hp::obs::TraceSink sink;
    hp::obs::TraceSink* const trace = config.trace ? &sink : nullptr;
    WorkloadResult result;
    if (config.workload == "replay_torus16") {
      result = perfbench::run_replay(config, trace);
    } else if (config.workload == "sim_open_fattree8") {
      result = perfbench::run_sim(config, false, trace);
    } else if (config.workload == "sim_incast_closed") {
      result = perfbench::run_sim(config, true, trace);
    } else {
      result = perfbench::run_churn(config, trace);
    }
    check_names(config.trace, result);

    const std::string report = human_report(config, result);
    std::fputs(report.c_str(), stdout);
    if (config.trace) {
      std::filesystem::create_directories(HP_BENCH_OUT_DIR);
      const std::string stem =
          std::string(HP_BENCH_OUT_DIR) + "/" + config.workload;
      sink.write(stem + ".spans.json");
      std::ofstream(stem + ".layers.txt") << report;
      std::printf("wrote %s.spans.json and %s.layers.txt\n", stem.c_str(),
                  stem.c_str());
    }
    std::printf("%s\n", result_json(result, config.trace).c_str());
    return result.gate_failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
