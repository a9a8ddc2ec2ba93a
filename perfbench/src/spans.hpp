#pragma once
// Span bookkeeping of the traced run.
//
// The traced run records one span per call into a layer (named
// "<layer>.<call>", e.g. "scenario.fabric_builder.apply_failure") into
// an obs::TraceSink, and hands the same sink to the program's own phase
// tracer, so its events (sim.schedule, compile.all_pairs, replay.epoch,
// ...) land nested under the benchmark's spans.  A layer's self time is
// its spans' time minus the part their child spans cover.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// The repo module a span belongs to: the program's phase events map
/// through a fixed table, the benchmark's own spans drop their last
/// name segment.
[[nodiscard]] std::string layer_of(std::string_view span);

struct LayerTime {
  std::string layer;
  double self_s = 0.0;   ///< span time not covered by child spans
  std::size_t spans = 0;
};

/// Self time per layer, summed over every span nested (at any depth,
/// itself included) inside a span named `root`; sorted by self time,
/// largest first.  Events of different threads never nest.
[[nodiscard]] std::vector<LayerTime> self_times(
    const std::vector<hp::obs::TraceEvent>& events, std::string_view root);

/// Total duration of the spans named `name`, in seconds.
[[nodiscard]] double span_seconds(
    const std::vector<hp::obs::TraceEvent>& events, std::string_view name);

/// Durations of the spans named `name`, in seconds, in record order.
[[nodiscard]] std::vector<double> span_durations(
    const std::vector<hp::obs::TraceEvent>& events, std::string_view name);

}  // namespace perfbench
