#pragma once
// Traffic-matrix generators: per-packet (ingress, label) streams.
//
// A scenario's workload is a flat packet stream over a BuiltFabric:
// contiguous arrays of 64-bit labels and ingress nodes (the exact shape
// CompiledFabric::forward_batch consumes) plus, per packet, the index
// of its (src, dst) pair so expectations can be checked and labels
// rewritten when a link failure forces a recompile mid-run.  Four
// matrix shapes: uniform-random pairs, a router permutation, hotspot
// (a weighted share of traffic converging on one destination) and the
// elephant/mice FCT mix reused from netsim::workload.

#include <cstdint>
#include <vector>

#include "netsim/workload.hpp"
#include "polka/label.hpp"
#include "scenario/fabric_builder.hpp"

namespace hp::scenario {

enum class TrafficPattern {
  kUniformRandom,  ///< random (src, dst) pairs, packets spread evenly
  kPermutation,    ///< each router sends to one fixed partner
  kHotspot,        ///< `hotspot_weight` of traffic targets one router
  kElephantMice,   ///< netsim::workload flow sizes over random pairs
};

[[nodiscard]] const char* to_string(TrafficPattern pattern);

struct TrafficParams {
  TrafficPattern pattern = TrafficPattern::kUniformRandom;
  std::size_t packets = 1 << 14;  ///< total stream length (exact)
  std::uint64_t seed = 1;
  /// Cap on distinct (src, dst) pairs sampled by the random patterns,
  /// bounding route-compilation work on large topologies.
  std::size_t max_pairs = 2048;
  /// kHotspot: share of packets whose destination is the hot router.
  double hotspot_weight = 0.5;
  /// kElephantMice: flow arrival/size shape and the packetization MTU.
  netsim::WorkloadParams workload;
  double mtu_bytes = 1500.0;
};

/// One traffic endpoint pair and its compiled expectations.
struct TrafficPair {
  netsim::NodeIndex src = 0;  ///< topology index
  netsim::NodeIndex dst = 0;
  polka::PacketResult expected;  ///< egress node/port/hops for the pair
};

/// A replayable packet stream.  labels/ingress/pair are parallel
/// arrays, one entry per packet.  Pairs whose route needs more than one
/// 64-bit label carry their segments in the pooled arrays below (the
/// packet's own label then duplicates the first segment); seg_refs is
/// parallel to `pairs`.
struct PacketStream {
  std::vector<polka::RouteLabel> labels;
  std::vector<std::uint32_t> ingress;  ///< fabric injection node
  std::vector<std::uint32_t> pair;     ///< index into `pairs`
  std::vector<TrafficPair> pairs;
  /// Pooled multi-segment routes: seg_refs[lane] slices seg_labels /
  /// seg_waypoints; label_count == 1 means the pair is single-label.
  std::vector<polka::RouteLabel> seg_labels;
  std::vector<std::uint32_t> seg_waypoints;
  std::vector<polka::SegmentRef> seg_refs;
  /// Pairs skipped at generation time because the route has no
  /// fast-path form at all (kept for reporting; zero since segmented
  /// routes made every compiled route packable).
  std::size_t unpackable_pairs = 0;
  std::size_t unreachable_pairs = 0;

  [[nodiscard]] std::size_t size() const noexcept { return labels.size(); }
};

/// Pool a route's segment list into a pair of pooled arrays (a
/// stream's seg_labels/seg_waypoints, or a RouteTimeline's copy) and
/// return the ref describing the slice.  A single-label route pools
/// nothing and returns the default (label_count == 1) ref.  Shared by
/// stream generation and the failover timeline so the ref layout has
/// exactly one author.
polka::SegmentRef append_segments(std::vector<polka::RouteLabel>& labels,
                                  std::vector<std::uint32_t>& waypoints,
                                  const polka::SegmentedRoute& route);

/// Generate a packet stream over the fabric's routers.  Compiles every
/// route it uses (single-threaded; do this before sharding a replay).
/// Throws std::invalid_argument when the fabric has < 2 routers or
/// params.packets == 0.
[[nodiscard]] PacketStream generate_traffic(BuiltFabric& fabric,
                                            const TrafficParams& params);

}  // namespace hp::scenario
