#include "scenario/timeline.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace hp::scenario {

RouteTimeline build_route_timeline(BuiltFabric& fabric,
                                   const PacketStream& stream,
                                   std::span<const LinkFailure> failures,
                                   unsigned protection_k) {
  RouteTimeline timeline;
  if (protection_k > 0) (void)fabric.enable_protection(protection_k);
  if (failures.empty()) return timeline;

  std::vector<LinkFailure> schedule(failures.begin(), failures.end());
  std::ranges::stable_sort(schedule, {}, &LinkFailure::at_fraction);
  std::unordered_map<std::uint64_t, std::uint32_t> lane_of;
  for (std::uint32_t lane = 0; lane < stream.pairs.size(); ++lane) {
    lane_of.emplace(
        netsim::node_pair_key(stream.pairs[lane].src, stream.pairs[lane].dst),
        lane);
  }
  std::vector<char> severed(stream.pairs.size(), 0);
  using PairList = decltype(FailoverReport::swapped);

  for (LinkFailure failure : schedule) {
    const FailoverReport ev = failure.restore
                                  ? fabric.restore_link(failure.a, failure.b)
                                  : fabric.apply_failure(failure.a, failure.b);
    if (ev.duplicate) continue;
    failure.at_fraction = std::clamp(failure.at_fraction, 0.0, 1.0);
    const auto event = static_cast<std::uint32_t>(timeline.events.size());
    timeline.events.push_back(failure);

    // Listed pairs the stream sends on adopt their now-cached route;
    // returns how many lanes matched.
    auto adopt = [&](const PairList& pairs, Adoption kind,
                     std::span<const double> stretch = {}) {
      std::size_t matched = 0;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto [src, dst] = pairs[i];
        const auto it = lane_of.find(netsim::node_pair_key(src, dst));
        if (it == lane_of.end()) continue;
        const CompiledRoute* route = fabric.route(src, dst);
        if (route == nullptr || route->segments.labels.empty()) continue;
        // A detour may gain segments: pool them on the timeline's own
        // copy of the stream's pool, never on the stream.
        if (!route->segments.single_label() && timeline.seg_labels.empty()) {
          timeline.seg_labels = stream.seg_labels;
          timeline.seg_waypoints = stream.seg_waypoints;
        }
        severed[it->second] = 0;
        timeline.versions.push_back(
            {event, it->second, failure.at_fraction, kind,
             route->segments.labels.front(),
             append_segments(timeline.seg_labels, timeline.seg_waypoints,
                             route->segments),
             route->expected});
        if (!stretch.empty()) timeline.swap_stretch.push_back(stretch[i]);
        ++matched;
      }
      timeline.totals.rerouted_pairs += matched;
      return matched;
    };
    auto sever = [&](const PairList& pairs) {
      for (const auto& [src, dst] : pairs) {
        const auto it = lane_of.find(netsim::node_pair_key(src, dst));
        if (it == lane_of.end() || severed[it->second] != 0) continue;
        severed[it->second] = 1;
        timeline.versions.push_back(
            {event, it->second, failure.at_fraction, Adoption::kSevered});
        ++timeline.totals.unroutable_pairs;
      }
    };

    timeline.totals.backup_swapped_pairs +=
        adopt(ev.swapped, Adoption::kSwap, ev.swap_stretch);
    (void)adopt(ev.repaired, Adoption::kRecompile);
    FailoverReport lazy;
    if (fabric.pending_repair_count() > 0) lazy = fabric.repair_pending();
    timeline.totals.lazy_repaired_pairs +=
        adopt(lazy.repaired, Adoption::kRecompile);
    sever(ev.unroutable);
    sever(lazy.unroutable);
    timeline.totals.window_recompiles += ev.window_recompiles;
  }
  return timeline;
}

}  // namespace hp::scenario
