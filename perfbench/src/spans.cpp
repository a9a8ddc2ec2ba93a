#include "spans.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace perfbench {

std::string layer_of(std::string_view span) {
  // Phase events the program emits on its own (src/obs TraceScope
  // call sites), keyed by name prefix.
  struct Prefix {
    std::string_view prefix;
    std::string_view layer;
  };
  static constexpr Prefix kProgram[] = {
      {"compile.", "scenario.fabric_builder"},
      {"replay.", "scenario.runner"},
      {"sim.simulate", "sim.packet_sim"},
      {"sim.wire", "sim.runner"},
      {"sim.schedule", "sim.runner"},
      {"sim.report", "sim.runner"},
  };
  for (const Prefix& p : kProgram) {
    if (span.starts_with(p.prefix)) return std::string(p.layer);
  }
  const std::size_t dot = span.rfind('.');
  return std::string(dot == std::string_view::npos ? span
                                                   : span.substr(0, dot));
}

std::vector<LayerTime> self_times(
    const std::vector<hp::obs::TraceEvent>& events, std::string_view root) {
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Parents sort before their children: earlier start first, and on a
  // shared start the longer span first.
  std::ranges::sort(order, [&](std::size_t a, std::size_t b) {
    const auto& x = events[a];
    const auto& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.dur_us > y.dur_us;
  });

  std::vector<std::uint64_t> covered(events.size(), 0);
  std::vector<char> in_root(events.size(), 0);
  std::vector<std::size_t> stack;
  for (const std::size_t i : order) {
    const auto& e = events[i];
    while (!stack.empty()) {
      const auto& top = events[stack.back()];
      if (top.tid == e.tid && e.ts_us < top.ts_us + top.dur_us) break;
      stack.pop_back();
    }
    in_root[i] = e.name == root;
    if (!stack.empty()) {
      const std::size_t parent = stack.back();
      const auto& p = events[parent];
      // Timestamps are truncated to whole microseconds, so a child can
      // appear to outlive its parent by one tick: clip to the parent.
      covered[parent] +=
          std::min(e.ts_us + e.dur_us, p.ts_us + p.dur_us) - e.ts_us;
      in_root[i] = in_root[i] || in_root[parent];
    }
    stack.push_back(i);
  }

  std::map<std::string, LayerTime> by_layer;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (in_root[i] == 0) continue;
    const auto& e = events[i];
    LayerTime& row = by_layer[layer_of(e.name)];
    const std::uint64_t self =
        e.dur_us > covered[i] ? e.dur_us - covered[i] : 0;
    row.self_s += static_cast<double>(self) * 1e-6;
    ++row.spans;
  }
  std::vector<LayerTime> out;
  for (auto& [layer, row] : by_layer) {
    row.layer = layer;
    out.push_back(row);
  }
  std::ranges::sort(out, [](const LayerTime& a, const LayerTime& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

std::vector<double> span_durations(
    const std::vector<hp::obs::TraceEvent>& events, std::string_view name) {
  std::vector<double> out;
  for (const auto& e : events) {
    if (e.name == name) out.push_back(static_cast<double>(e.dur_us) * 1e-6);
  }
  return out;
}

double span_seconds(const std::vector<hp::obs::TraceEvent>& events,
                    std::string_view name) {
  const std::vector<double> d = span_durations(events, name);
  return std::accumulate(d.begin(), d.end(), 0.0);
}

}  // namespace perfbench
