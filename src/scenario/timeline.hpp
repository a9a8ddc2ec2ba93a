#pragma once
// RouteTimeline: the one failover -> route-version policy.
//
// Both execution modes share one step of the control loop: a link
// event becomes new per-pair labels.  build_route_timeline plays a
// failure schedule against the fabric once and records, per event,
// what each stream lane adopts -- a hitless backup swap (or revert to
// the primary), a recompiled route (eager, lazy, or a severed pair a
// restore reconnects), or nothing at all (severed).  The runners only
// map versions onto their clocks: replay onto stream positions, the
// simulator onto ticks.  Totals count stream lanes only, except
// window_recompiles, the fabric's compile work inside the events.

#include <cstdint>
#include <span>
#include <vector>

#include "netsim/topology.hpp"
#include "polka/label.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/traffic.hpp"

namespace hp::scenario {

/// One scheduled duplex-link event: a failure, or -- when `restore` is
/// set -- the link coming back up (flap schedules alternate the two).
struct LinkFailure {
  double at_fraction = 0.5;   ///< stream position in [0, 1]
  netsim::NodeIndex a = 0;    ///< topology endpoints of the duplex link
  netsim::NodeIndex b = 0;
  bool restore = false;       ///< true: the link comes back up
};

enum class Adoption : std::uint8_t {
  kSwap,       ///< hitless backup swap or revert to the primary
  kRecompile,  ///< freshly compiled route (pays a convergence window)
  kSevered,    ///< no route until a later version: label/ref/expected unset
};

/// One lane's route from one link event on.
struct RouteVersion {
  std::uint32_t event = 0;   ///< index into RouteTimeline::events
  std::uint32_t lane = 0;    ///< index into PacketStream::pairs
  double at_fraction = 0.0;  ///< the event's position
  Adoption kind = Adoption::kSwap;
  polka::RouteLabel label{};       ///< first segment label
  polka::SegmentRef ref{};         ///< into the timeline's (or stream's) pool
  polka::PacketResult expected{};
};

struct FailoverTotals {
  std::size_t rerouted_pairs = 0;        ///< swap + recompile versions
  std::size_t backup_swapped_pairs = 0;  ///< swap versions
  std::size_t lazy_repaired_pairs = 0;   ///< recompiles by repair_pending
  std::size_t unroutable_pairs = 0;      ///< severed versions
  std::size_t window_recompiles = 0;     ///< fabric routes compiled in events
};

struct RouteTimeline {
  /// Events that changed the fabric, in order, at_fraction clamped to
  /// [0, 1]; no-ops (failing a dead link, restoring a live one) dropped.
  std::vector<LinkFailure> events;
  /// By event; within one: swaps, recompiles, severed; a lane at most
  /// once per event.
  std::vector<RouteVersion> versions;
  std::vector<double> swap_stretch;  ///< per swap version, in order
  /// The stream's segment pool plus every list a failover added; empty
  /// while no version needed a new list (the stream's pool serves).
  std::vector<polka::RouteLabel> seg_labels;
  std::vector<std::uint32_t> seg_waypoints;
  FailoverTotals totals;
};

/// Arm protection (protection_k > 0), then apply `failures` in
/// at_fraction order -- each followed by repair_pending -- and collect
/// the stream lanes' new routes.  The stream is only read.
[[nodiscard]] RouteTimeline build_route_timeline(
    BuiltFabric& fabric, const PacketStream& stream,
    std::span<const LinkFailure> failures, unsigned protection_k);

}  // namespace hp::scenario
