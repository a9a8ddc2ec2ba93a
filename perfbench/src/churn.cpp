// reroute_churn: the control-plane write path.
//
// A protected 12x12 torus replays a seeded flapping-link schedule.
// Each down event is apply_failure (hitless backup swaps) followed by
// repair_pending (recompiles the pairs whose protection died); each up
// event is restore_link.  Route compilation, protection planning and
// backup swaps do the work; the fold kernels and the simulator are
// bypassed.  A pass replays several schedules, each on a fresh set-up,
// so passes repeat the same work and set-up is sampled per schedule.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <iterator>
#include <numeric>
#include <span>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/topologies.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sc = hp::scenario;
using hp::obs::TraceScope;
using hp::obs::TraceSink;

constexpr unsigned kTorusSide = 12;
constexpr std::size_t kFlappingLinks = 64;
constexpr unsigned kProtection = 1;
/// Independent schedules per pass: the cost of one schedule's events
/// depends on how its failures cluster, so a run averages several.
constexpr std::uint64_t kSchedules = 3;

struct Size {
  unsigned side = kTorusSide;
  std::size_t flapping_links = kFlappingLinks;
};

struct Churn {
  std::unique_ptr<sc::BuiltFabric> fabric;
  std::vector<sc::LinkFailure> schedule;
  double setup_s = 0.0;
  double compile_s = 0.0;
  double protect_s = 0.0;
  std::size_t routes = 0;
  std::size_t crt_steps = 0;
  std::size_t backups = 0;
};

Churn set_up(std::uint64_t seed, TraceSink* sink, Size size = {}) {
  Churn c;
  const Clock::time_point start = Clock::now();
  TraceScope root(sink, "bench.setup", "bench");
  {
    TraceScope span(sink, "scenario.fabric_builder.build", "bench");
    c.fabric = std::make_unique<sc::BuiltFabric>(
        sc::make_torus(size.side, size.side));
  }
  {
    TraceScope span(sink, "scenario.failure_injector.make_failure_schedule",
                    "bench");
    sc::FailureInjectorParams flap;
    flap.preset = sc::FailurePreset::kFlap;
    flap.seed = seed;
    flap.count = size.flapping_links;
    c.schedule = sc::make_failure_schedule(c.fabric->topology(), flap);
  }
  c.fabric->set_observability(nullptr, sink);
  c.compile_s = timed([&] {
    TraceScope span(sink, "scenario.fabric_builder.compile_all_pairs",
                    "bench");
    c.routes = c.fabric->compile_all_pairs(1);
  });
  c.crt_steps = c.fabric->compile_stats().crt_steps;
  c.protect_s = timed([&] {
    TraceScope span(sink, "scenario.fabric_builder.enable_protection",
                    "bench");
    c.backups = c.fabric->enable_protection(kProtection);
  });
  c.fabric->set_observability(nullptr, nullptr);
  c.setup_s = seconds_between(start, Clock::now());
  return c;
}

/// What one event did: the failure (or restore) report and, for a
/// down event, the repair report.
struct Outcome {
  sc::FailoverReport first;
  sc::FailoverReport repair;
};

bool same(const sc::FailoverReport& a, const sc::FailoverReport& b) {
  return a.affected == b.affected && a.swapped == b.swapped &&
         a.swap_stretch == b.swap_stretch && a.repaired == b.repaired &&
         a.pending == b.pending && a.unroutable == b.unroutable &&
         a.window_recompiles == b.window_recompiles &&
         a.duplicate == b.duplicate;
}

/// Host times of one pass over the schedule, indexed by event.
struct Pass {
  std::vector<double> event_s;   ///< the whole event
  std::vector<double> first_s;   ///< apply_failure or restore_link
  std::vector<double> repair_s;  ///< repair_pending (0 on up events)
  std::vector<Outcome> outcomes;
  std::size_t failed_events = 0;  ///< events a gate rejected
};

/// What replay_schedule checks after each event, outside its timing.
enum class Check {
  kRouteGate,    ///< every connected pair has a live, forwarding route
  kSameAsGated,  ///< the reports equal those of the gated pass
  kNothing,      ///< the gated pass failed; its gate compiled the missing
                 ///< routes, so later passes diverge from it by design
};

/// Replays the schedule once.  The first pass runs the route gate after
/// every event; later passes replay the same inputs on a fresh set-up,
/// so they must do the same work, which the cheaper report comparison
/// against `gated` checks.  `drop_repairs` skips repair_pending -- the
/// self-test's proof that the route gate catches a lost repair.
Pass replay_schedule(Churn& c, TraceSink* sink,
                     hp::obs::MetricRegistry* metrics, Check check,
                     std::span<const Outcome> gated = {},
                     bool drop_repairs = false) {
  Pass p;
  sc::BuiltFabric& fabric = *c.fabric;
  fabric.set_observability(metrics, sink);
  for (std::size_t i = 0; i < c.schedule.size(); ++i) {
    const sc::LinkFailure& ev = c.schedule[i];
    Outcome o;
    Clock::time_point t0;
    Clock::time_point t1;
    Clock::time_point t2;
    {
      TraceScope op(sink, "bench.op", "bench");
      t0 = Clock::now();
      if (ev.restore) {
        TraceScope span(sink, "scenario.fabric_builder.restore_link", "bench");
        o.first = fabric.restore_link(ev.a, ev.b);
      } else {
        TraceScope span(sink, "scenario.fabric_builder.apply_failure", "bench");
        o.first = fabric.apply_failure(ev.a, ev.b);
      }
      t1 = Clock::now();
      if (!ev.restore && !drop_repairs) {
        TraceScope span(sink, "scenario.fabric_builder.repair_pending",
                        "bench");
        o.repair = fabric.repair_pending();
      }
      t2 = Clock::now();
    }
    p.event_s.push_back(seconds_between(t0, t2));
    p.first_s.push_back(seconds_between(t0, t1));
    p.repair_s.push_back(seconds_between(t1, t2));
    TraceScope gate(sink, "bench.route_gate", "bench");
    bool ok = true;
    if (check == Check::kRouteGate) {
      ok = unserved_pairs(fabric) == 0;
    } else if (check == Check::kSameAsGated) {
      ok = same(o.first, gated[i].first) && same(o.repair, gated[i].repair);
    }
    if (!ok) ++p.failed_events;
    p.outcomes.push_back(std::move(o));
  }
  fabric.set_observability(nullptr, nullptr);
  return p;
}

/// Host time of a pass: the sum of its event times.
double total(const Pass& p) {
  return std::accumulate(p.event_s.begin(), p.event_s.end(), 0.0);
}

/// The pass that took the least host time: its events' cost with the
/// least interference from the rest of the host.
const Pass& fastest_pass(const std::vector<Pass>& passes) {
  return *std::ranges::min_element(
      passes, [](const Pass& a, const Pass& b) { return total(a) < total(b); });
}

/// The entries of `values` at events whose restore flag is `restore`.
std::vector<double> where(const std::vector<double>& values,
                          const std::vector<sc::LinkFailure>& schedule,
                          bool restore) {
  std::vector<double> out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (schedule[i].restore == restore) out.push_back(values[i]);
  }
  return out;
}

}  // namespace

bool churn_gate_catches_dropped_repairs() {
  const Size small{6, 12};
  Churn c = set_up(1, nullptr, small);
  const Pass dropped =
      replay_schedule(c, nullptr, nullptr, Check::kRouteGate, {}, true);
  c = set_up(1, nullptr, small);
  const Pass kept = replay_schedule(c, nullptr, nullptr, Check::kRouteGate);
  return dropped.failed_events > 0 && kept.failed_events == 0;
}

WorkloadResult run_churn(const RunConfig& config, TraceSink* trace) {
  WorkloadResult out;
  std::vector<double> setup_s;
  std::vector<double> compile_s;
  std::vector<double> protect_s;
  Churn last;
  std::vector<sc::LinkFailure> events;  // every schedule of a pass
  std::vector<Outcome> gated;           // the first pass's reports
  std::size_t gated_failures = 0;

  // One pass = each schedule replayed on a fresh set-up.
  auto pass = [&](TraceSink* sink, hp::obs::MetricRegistry* metrics) {
    const bool first_pass = gated.empty();
    Pass all;
    for (std::uint64_t j = 0; j < kSchedules; ++j) {
      last = Churn{};
      last = set_up(config.seed * kSchedules + j, sink);
      setup_s.push_back(last.setup_s);
      compile_s.push_back(last.compile_s);
      protect_s.push_back(last.protect_s);
      const Check check = first_pass            ? Check::kRouteGate
                          : gated_failures == 0 ? Check::kSameAsGated
                                                : Check::kNothing;
      Pass p = replay_schedule(
          last, sink, metrics, check,
          std::span<const Outcome>(gated).subspan(
              first_pass ? 0 : all.event_s.size(),
              first_pass ? 0 : last.schedule.size()));
      for (auto times : {&Pass::event_s, &Pass::first_s, &Pass::repair_s}) {
        (all.*times).insert((all.*times).end(), (p.*times).begin(),
                            (p.*times).end());
      }
      all.failed_events += p.failed_events;
      if (first_pass) {
        events.insert(events.end(), last.schedule.begin(),
                      last.schedule.end());
        std::ranges::move(p.outcomes, std::back_inserter(gated));
      }
    }
    out.attempted += all.event_s.size();
    out.failed += all.failed_events;
    if (first_pass) gated_failures = all.failed_events;
    out.gate(all.failed_events == 0,
             first_pass ? "churn: a connected pair lacks a live route to its "
                          "destination"
                        : "churn: a replayed pass differs from the gated pass");
    return all;
  };

  // The closed loop: untraced passes give the end-to-end numbers.  A
  // traced run alternates them with passes recording spans (program
  // phases nested), the per-layer breakdown and the tracing overhead.
  const double loop_s =
      trace != nullptr ? config.seconds * 0.7 : config.seconds;
  std::vector<Pass> passes;
  std::vector<Pass> traced;
  if (trace == nullptr) {
    (void)loop_for(loop_s, 2,
                   [&](auto) { passes.push_back(pass(nullptr, nullptr)); });
  } else {
    TraceScope root(trace, "bench.measure", "bench");
    (void)alternate(
        loop_s, 1, [&](auto) { passes.push_back(pass(nullptr, nullptr)); },
        [&](auto) { traced.push_back(pass(trace, nullptr)); });
  }
  const Pass& best = fastest_pass(passes);
  const double n_events = static_cast<double>(best.event_s.size());
  out.table.push_back({"setup_s", fastest(setup_s), "s"});
  out.table.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
  out.table.push_back(
      {"fail_frac",
       finite_or_zero(static_cast<double>(out.failed) /
                      static_cast<double>(out.attempted)),
       "ratio"});
  out.table.push_back({"reroute_p50_us", median(best.event_s) * 1e6, "us"});
  out.table.push_back(
      {"reroute_p95_us", percentile(best.event_s, 0.95) * 1e6, "us"});
  out.notes.push_back("set-up: " + describe(setup_s, 1e3, "ms"));
  std::vector<double> pass_s;
  for (const Pass& p : passes) pass_s.push_back(total(p));
  out.notes.push_back("pass of " + std::to_string(best.event_s.size()) +
                      " link events (" + std::to_string(kSchedules) +
                      " schedules): " + describe(pass_s, 1e3, "ms"));
  out.notes.push_back("link event, fastest pass: " +
                      describe(best.event_s, 1e6, "us"));
  const double tail_q = highest_supported_quantile(best.event_s.size());
  char tail[120];
  std::snprintf(tail, sizeof tail,
                "highest percentile with 10 samples beyond it: p%g = %.1f us",
                tail_q * 100.0, percentile(best.event_s, tail_q) * 1e6);
  out.notes.emplace_back(tail);

  if (trace == nullptr) {
    out.values["setup_s"] = fastest(setup_s);
    out.values["peak_rss_mb"] = peak_rss_mib();
    out.values["ops_per_s"] = n_events / total(best);
    return out;
  }

  // Passes alternate no registry and a registry; each event of a pass
  // with the registry is paired with the same event of the pass before.
  hp::obs::MetricRegistry registry;
  std::vector<double> ratios;
  std::vector<double> without;
  (void)alternate(
      config.seconds * 0.3, 1,
      [&](auto) { without = pass(nullptr, nullptr).event_s; },
      [&](auto) {
        const Pass with = pass(nullptr, &registry);
        for (std::size_t e = 0; e < with.event_s.size(); ++e) {
          ratios.push_back(with.event_s[e] / without[e]);
        }
      });
  report_metrics_overhead(
      median(ratios) - 1.0, relative_spread(ratios),
      "median of " + std::to_string(ratios.size()) +
          " per-event time ratios, registry on against off",
      out);
  std::vector<double> export_ms;
  const hp::obs::MetricsSnapshot snapshot = registry.snapshot();
  for (int i = 0; i < 5; ++i) {
    export_ms.push_back(1e3 * timed([&] {
                          TraceScope span(trace, "obs.to_json", "bench");
                          const std::string json = hp::obs::to_json(snapshot);
                          out.gate(!json.empty(), "empty snapshot export");
                        }));
  }

  std::size_t swapped = 0;
  std::size_t repaired = 0;
  std::size_t window_recompiles = 0;
  std::size_t unroutable = 0;
  for (const Outcome& o : gated) {
    for (const sc::FailoverReport* r : {&o.first, &o.repair}) {
      swapped += r->swapped.size();
      repaired += r->repaired.size();
      window_recompiles += r->window_recompiles;
      unroutable += r->unroutable.size();
    }
  }
  auto& v = out.values;
  v["compile.all_pairs_s"] = fastest(compile_s);
  v["compile.ns_per_route"] =
      fastest(compile_s) * 1e9 / static_cast<double>(last.routes);
  v["compile.crt_steps"] = static_cast<double>(last.crt_steps);
  v["protect.enable_s"] = fastest(protect_s);
  v["protect.backups"] = static_cast<double>(last.backups);
  v["protect.ns_per_backup"] =
      fastest(protect_s) * 1e9 / static_cast<double>(last.backups);
  v["failover.apply_us"] = median(where(best.first_s, events, false)) * 1e6;
  v["failover.repair_us"] = median(where(best.repair_s, events, false)) * 1e6;
  v["failover.restore_us"] = median(where(best.first_s, events, true)) * 1e6;
  v["failover.swapped_pairs"] = static_cast<double>(swapped);
  v["failover.repaired_pairs"] = static_cast<double>(repaired);
  v["failover.window_recompiles"] = static_cast<double>(window_recompiles);
  v["failover.unroutable_pairs"] = static_cast<double>(unroutable);
  v["obs.export_ms"] = median(export_ms);
  // Mean host time per event of the fastest pass, with spans and
  // without.
  report_layers(trace->events(), total(best) / n_events,
                total(fastest_pass(traced)) / n_events, out);
  return out;
}

}  // namespace perfbench
