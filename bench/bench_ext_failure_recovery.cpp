// Extension (paper Section VII / PolKA capability): failure recovery,
// measured on the compiled-label data plane.
//
// Two fabrics -- a 256-node ring (the worst case for reconvergence:
// every detour is long) and a fat-tree k=4 -- replay the same stream
// twice against an injector-generated single-link failure:
//
//   unprotected  the failure eagerly recompiles every crossing route
//                inside the event; each recompiled pair loses its next
//                `kLossWindow` packets (the convergence-loss model);
//   protected    enable_protection(1) pre-installs link-disjoint
//                backups, so the failure is an O(1) label swap per
//                pair -- zero recompiles in the window, zero window
//                loss.
//
// The headline numbers are packets lost per failure and the switchover
// wall clock (compile.fail_link_ns: apply_failure's time per failure
// event); the self-check enforces
// the PR's acceptance bar: protected runs must perform zero window
// recompiles and lose strictly fewer packets than unprotected ones.

#include <cstdio>
#include <iostream>
#include <string>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/traffic.hpp"

namespace {

constexpr std::size_t kLossWindow = 8;  // packets lost per recompiled pair

struct ModeOutcome {
  hp::scenario::ScenarioReport report;
  double switchover_ns_mean = 0.0;
  double stretch_pct_mean = 0.0;
  std::size_t backup_routes = 0;
  std::size_t backup_swaps = 0;
};

ModeOutcome run_mode(const hp::scenario::ScenarioSpec& spec, unsigned k) {
  hp::scenario::BuiltFabric fabric(hp::scenario::build_topology(spec));
  hp::scenario::PacketStream stream =
      hp::scenario::generate_traffic(fabric, spec.traffic);

  hp::scenario::FailureInjectorParams inject;
  inject.preset = hp::scenario::FailurePreset::kSingle;
  inject.seed = 42;
  inject.count = 1;
  inject.start_fraction = 0.40;
  inject.end_fraction = 0.60;

  hp::obs::MetricRegistry registry;
  hp::scenario::RunnerOptions options;
  options.threads = 2;
  options.failures = hp::scenario::make_failure_schedule(fabric.topology(),
                                                         inject);
  options.protection_k = k;
  options.loss_window_per_recompile = kLossWindow;
  options.metrics = &registry;

  ModeOutcome out;
  out.report = hp::scenario::ScenarioRunner(options).run(fabric, stream);
  out.backup_routes = fabric.compile_stats().backup_routes;
  out.backup_swaps = fabric.compile_stats().backup_swaps;
  const hp::obs::MetricsSnapshot snap = registry.snapshot();
  if (const auto* h = snap.find("compile.fail_link_ns")) {
    out.switchover_ns_mean = h->histogram.mean();
  }
  if (const auto* h = snap.find("replay.failover.stretch_pct")) {
    out.stretch_pct_mean = h->histogram.mean();
  }
  return out;
}

void emit(hp::obs::BenchReport& report, const std::string& scenario,
          const char* mode, const ModeOutcome& out) {
  auto& result = report.add(
      scenario + "/" + mode,
      static_cast<double>(out.report.failover_packets_lost), "packets", mode);
  result.counters.emplace_back(
      "window_recompiles",
      static_cast<double>(out.report.window_recompiles));
  result.counters.emplace_back(
      "backup_swapped_pairs",
      static_cast<double>(out.report.backup_swapped_pairs));
  result.counters.emplace_back(
      "lazy_repaired_pairs",
      static_cast<double>(out.report.lazy_repaired_pairs));
  result.counters.emplace_back(
      "unroutable_pairs", static_cast<double>(out.report.unroutable_pairs));
  result.counters.emplace_back(
      "rerouted_pairs", static_cast<double>(out.report.rerouted_pairs));
  result.counters.emplace_back("backup_routes",
                               static_cast<double>(out.backup_routes));
  result.counters.emplace_back("backup_swaps",
                               static_cast<double>(out.backup_swaps));
  result.counters.emplace_back("switchover_ns_mean", out.switchover_ns_mean);
  result.counters.emplace_back("stretch_pct_mean", out.stretch_pct_mean);
}

}  // namespace

int main() {
  std::cout << "=== Extension: hitless failure recovery ===\n\n";

  // The worst reconvergence case (ring detours are long) plus a real
  // Clos fabric from the registry.
  hp::scenario::ScenarioSpec ring;
  ring.name = "ring256/uniform";
  ring.family = hp::scenario::TopologyFamily::kRing;
  ring.a = 256;
  ring.traffic.pattern = hp::scenario::TrafficPattern::kUniformRandom;
  ring.traffic.packets = 1 << 15;
  ring.traffic.seed = 11;
  ring.traffic.max_pairs = 512;

  const hp::scenario::ScenarioSpec* fat_tree =
      hp::scenario::find_scenario("fat_tree_k4/uniform");
  if (fat_tree == nullptr) {
    std::cerr << "registry lost fat_tree_k4/uniform\n";
    return 1;
  }

  hp::obs::BenchReport report("ext_failure_recovery");
  bool ok = true;
  for (const hp::scenario::ScenarioSpec* spec :
       {static_cast<const hp::scenario::ScenarioSpec*>(&ring), fat_tree}) {
    const ModeOutcome unprotected = run_mode(*spec, 0);
    const ModeOutcome protected_ = run_mode(*spec, 1);
    emit(report, spec->name, "unprotected", unprotected);
    emit(report, spec->name, "protected", protected_);

    const std::size_t affected = protected_.report.backup_swapped_pairs +
                                 protected_.report.lazy_repaired_pairs +
                                 protected_.report.unroutable_pairs;
    std::printf(
        "%-22s affected=%zu  lost: unprotected=%zu protected=%zu  "
        "window recompiles: %zu -> %zu  switchover: %.0f -> %.0f ns\n",
        spec->name.c_str(), affected,
        unprotected.report.failover_packets_lost,
        protected_.report.failover_packets_lost,
        unprotected.report.window_recompiles,
        protected_.report.window_recompiles,
        unprotected.switchover_ns_mean, protected_.switchover_ns_mean);

    // The acceptance bar: the failure must actually bite, protection
    // must compile nothing in the window, and it must lose strictly
    // fewer packets than the eager recompile path.
    if (affected == 0) {
      std::cerr << spec->name << ": failure touched no route\n";
      ok = false;
    }
    if (protected_.report.window_recompiles != 0) {
      std::cerr << spec->name << ": protected run recompiled in-window\n";
      ok = false;
    }
    if (protected_.report.failover_packets_lost >=
        unprotected.report.failover_packets_lost) {
      std::cerr << spec->name
                << ": protection did not reduce packets lost\n";
      ok = false;
    }
    if (unprotected.report.wrong_egress != 0 ||
        protected_.report.wrong_egress != 0) {
      std::cerr << spec->name << ": wrong egress after failover\n";
      ok = false;
    }
  }

  std::cout << "\nwrote " << report.write_default() << '\n';
  if (!ok) {
    std::cerr << "self-check FAILED\n";
    return 1;
  }
  std::cout << "self-check passed: zero in-window recompiles with "
               "protection, strictly fewer packets lost\n";
  return 0;
}
