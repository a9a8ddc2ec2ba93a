#include "sim/packet_sim.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/contracts.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_bridge.hpp"

namespace hp::sim {

namespace {

/// Event kinds on the engine's queue.
enum EventKind : std::uint32_t {
  kArrive = 0,    ///< arg = packet index; packet reaches its state's node
  kDrain = 1,     ///< arg = channel index; one serialization finished
  kLinkDown = 2,  ///< arg = channel index; the wire disappears
  kLinkUp = 3,    ///< arg = channel index; the wire comes back
  kTimer = 4,     ///< arg = opaque cookie handed to config.timer_hook
};

}  // namespace

PacketSim::PacketSim(const polka::CompiledFabric& fabric,
                     std::vector<Channel> channels,
                     std::vector<std::uint32_t> node_offset,
                     std::vector<std::uint32_t> port_channel, SimConfig config)
    : fabric_(fabric),
      channels_(std::move(channels)),
      node_offset_(std::move(node_offset)),
      port_channel_(std::move(port_channel)),
      config_(std::move(config)) {
  const std::size_t n = fabric_.node_count();
  if (node_offset_.size() != n + 1 || node_offset_.front() != 0 ||
      node_offset_.back() != port_channel_.size()) {
    throw std::invalid_argument("PacketSim: node_offset shape mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (node_offset_[i] > node_offset_[i + 1] ||
        node_offset_[i + 1] - node_offset_[i] != fabric_.port_count(i)) {
      throw std::invalid_argument(
          "PacketSim: node_offset does not match the fabric's port counts");
    }
  }
  for (const std::uint32_t c : port_channel_) {
    if (c != kNoChannel && c >= channels_.size()) {
      throw std::invalid_argument("PacketSim: channel index out of range");
    }
  }
  result_.links.assign(channels_.size(), LinkStat{});
  channel_state_.assign(channels_.size(), ChannelState{});
  link_up_.assign(channels_.size(), 1);
  register_metrics();
}

std::string link_metric_name(std::size_t channel, const char* kind) {
  char name[64];
  std::snprintf(name, sizeof(name), "sim.link.%05zu.%s", channel, kind);
  return name;
}

void PacketSim::register_metrics() {
  obs::MetricRegistry* reg = config_.metrics;
  if (reg == nullptr) return;
  obs_.in_flight = &reg->gauge("sim.in_flight");
  obs_.queue_depth = &reg->histogram("sim.queue_depth");
  obs_.link_depth.reserve(channels_.size());
  for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
    obs_.link_depth.push_back(&reg->gauge(link_metric_name(ch, "queue_depth")));
  }
}

void PacketSim::refresh_gauges() {
  if (obs_.in_flight == nullptr) return;
  const SimCounters& c = result_.counters;
  obs_.in_flight->set(static_cast<std::int64_t>(
      c.injected - c.delivered - c.dropped - c.ttl_expired));
  for (std::size_t ch = 0; ch < channel_state_.size(); ++ch) {
    obs_.link_depth[ch]->set(channel_state_[ch].queued);
  }
}

void PacketSim::set_segment_pool(std::span<const polka::RouteLabel> labels,
                                 std::span<const std::uint32_t> waypoints) {
  pool_labels_ = labels;
  pool_waypoints_ = waypoints;
}

void PacketSim::schedule_link_state(Tick at, std::uint32_t channel, bool up) {
  if (channel >= channels_.size()) {
    throw std::invalid_argument(
        "PacketSim::schedule_link_state: bad channel index");
  }
  queue_.push(at, up ? kLinkUp : kLinkDown, channel);
}

std::uint32_t PacketSim::add_flow(const polka::PacketResult& expected) {
  flow_expected_.push_back(expected);
  result_.flows.push_back(FlowStat{});
  return static_cast<std::uint32_t>(flow_expected_.size() - 1);
}

void PacketSim::schedule_timer(Tick at, std::uint32_t arg) {
  if (!config_.timer_hook) {
    throw std::logic_error("PacketSim::schedule_timer: no timer_hook set");
  }
  queue_.push(at, kTimer, arg);
}

std::uint32_t PacketSim::inject(Tick at, polka::RouteLabel label,
                                polka::SegmentRef ref, std::uint32_t source,
                                std::uint32_t flow) {
  if (source >= fabric_.node_count()) {
    throw std::invalid_argument("PacketSim::inject: bad source node");
  }
  if (flow >= flow_expected_.size()) {
    throw std::invalid_argument("PacketSim::inject: unknown flow");
  }
  if (ref.label_count == 0 ||
      (ref.label_count > 1 &&
       (ref.first_label + std::size_t{ref.label_count} > pool_labels_.size() ||
        ref.first_waypoint + std::size_t{ref.label_count} - 1 >
            pool_waypoints_.size()))) {
    throw std::invalid_argument(
        "PacketSim::inject: segment ref outside the pools");
  }
  PacketState p;
  // Mirrors replay_slice's lane split: pooled labels only for genuinely
  // multi-segment routes (a default ref's first_label means nothing).
  p.label = ref.label_count > 1 ? pool_labels_[ref.first_label].bits
                                : label.bits;
  p.ref = ref;
  p.node = source;
  p.flow = flow;
  const auto index = static_cast<std::uint32_t>(packets_.size());
  packets_.push_back(p);
  FlowStat& fs = result_.flows[flow];
  if (fs.packets == 0 || at < fs.first_inject) fs.first_inject = at;
  ++fs.packets;
  ++result_.counters.injected;
  if (ref.label_count > 1) ++result_.counters.segmented_packets;
  queue_.push(at, kArrive, index);
  return index;
}

// HP_HOT_BEGIN(event_loop)
// The discrete-event inner loop: every hop is a fold, a wiring lookup
// and O(1) queue/state updates on storage sized at wiring time.  All
// allocation (packets_, flows, the per-link vectors) happens in
// inject()/register_metrics() before the clock starts; the loop itself
// must stay growth-free (lint rule hot-path-purity) or event-rate
// throughput becomes allocator-bound.  EventQueue::push re-uses its
// heap's capacity after the first growth.
void PacketSim::handle_arrival(Tick t, std::uint32_t packet) {
  HP_DCHECK(packet < packets_.size(), "PacketSim: arrival for unknown packet");
  PacketState& s = packets_[packet];
  HP_DCHECK(s.node < fabric_.node_count(),
            "PacketSim: packet parked on an unknown node");
  SimCounters& c = result_.counters;
  // 1-in-N flight recording resolved once per hop; flight is a null
  // pointer for unsampled flows so every tap below is one branch.
  obs::FlightRecorder* const flight =
      config_.recorder != nullptr && config_.recorder->sampled(s.flow)
          ? config_.recorder
          : nullptr;
  // Waypoint re-label before this node's mod, exactly as the batch walk
  // kernel does (fold_kernels.hpp): a waypoint folds once like every
  // other node, just with its fresh label.
  if (s.seg + 1 < s.ref.label_count &&
      s.node == pool_waypoints_[s.ref.first_waypoint + s.seg]) {
    ++s.seg;
    s.label = pool_labels_[s.ref.first_label + s.seg].bits;
    ++c.segment_swaps;
  }
  const std::uint32_t port =
      fabric_.port_of(polka::RouteLabel{s.label}, s.node);
  ++c.mod_operations;
  ++s.hops;
  const std::uint32_t peer = fabric_.neighbor(s.node, port);
  FlowStat& fs = result_.flows[s.flow];
  // Shared delivery tail: the unwired-port and channel-less-port exits.
  const auto deliver = [&] {
    ++c.delivered;
    ++fs.delivered;
    fs.last_delivery = std::max(fs.last_delivery, t);
    const polka::PacketResult got{s.node, port, s.hops, false};
    if (got != flow_expected_[s.flow]) ++c.wrong_egress;
    if (flight != nullptr) {
      flight->record({t, s.flow, packet, s.node, port, 0,
                      obs::HopOutcome::kDelivered});
    }
    if (config_.delivered_hook) config_.delivered_hook(t, s.flow, packet);
  };
  if (peer == polka::CompiledFabric::kNoNode) {
    // Unwired port: the packet egresses here -- a delivery.
    deliver();
    return;
  }
  if (s.hops >= config_.max_hops) {
    ++c.ttl_expired;
    ++fs.ttl_expired;
    if (flight != nullptr) {
      flight->record({t, s.flow, packet, s.node, port, 0,
                      obs::HopOutcome::kTtlExpired});
    }
    if (config_.drop_hook) {
      config_.drop_hook(t, s.flow, packet, DropCause::kTtlExpired);
    }
    return;
  }
  const std::uint32_t ch = port_channel_[node_offset_[s.node] + port];
  if (ch == kNoChannel) {
    // A wired fabric port the runner gave no channel (should not happen
    // on runner-built maps); treat as an egress so the walk terminates.
    deliver();
    return;
  }
  const Channel& link = channels_[ch];
  ChannelState& state = channel_state_[ch];
  LinkStat& stat = result_.links[ch];
  if (link_up_[ch] == 0) {
    // The wire is gone: nothing to queue behind, the packet is lost.
    // This is the loss window hitless failover shrinks -- packets that
    // left their source before the control plane swapped the route.
    ++c.dropped;
    ++c.failover_lost;
    ++fs.dropped;
    ++stat.failover_drops;
    if (flight != nullptr) {
      flight->record({t, s.flow, packet, s.node, port, state.queued,
                      obs::HopOutcome::kLinkDown});
    }
    if (config_.drop_hook) {
      config_.drop_hook(t, s.flow, packet, DropCause::kLinkDown);
    }
    return;
  }
  if (state.queued >= link.queue_capacity) {
    // Tail drop: the egress FIFO is full.
    ++c.dropped;
    ++fs.dropped;
    ++stat.tail_drops;
    if (flight != nullptr) {
      flight->record({t, s.flow, packet, s.node, port, state.queued,
                      obs::HopOutcome::kTailDrop});
    }
    if (config_.drop_hook) {
      config_.drop_hook(t, s.flow, packet, DropCause::kTailDrop);
    }
    return;
  }
  ++state.queued;
  stat.max_queue_depth = std::max(stat.max_queue_depth, state.queued);
  if (link.ecn_threshold != 0 && state.queued >= link.ecn_threshold) {
    ++c.ecn_marked;
    ++stat.ecn_marks;
    if (config_.ecn_hook) config_.ecn_hook(ch, state.queued, s.flow);
  }
  if (obs_.queue_depth != nullptr) obs_.queue_depth->record(state.queued);
  if (flight != nullptr) {
    flight->record({t, s.flow, packet, s.node, port, state.queued,
                    obs::HopOutcome::kForwarded});
  }
  // FIFO serialization: the wire commits to this packet after everything
  // already queued; the departure time is known at enqueue time.
  const Tick start = std::max(t, state.free_at);
  const Tick depart = start + link.serialize_ns;
  state.free_at = depart;
  stat.busy_ns += link.serialize_ns;
  ++stat.forwarded;
  s.node = peer;
  // Drain (queue slot freed) before the downstream arrival: pushed
  // first, so a zero-latency tie still frees the slot first.
  queue_.push(depart, kDrain, ch);
  queue_.push(depart + link.latency_ns, kArrive, packet);
}

SimResult PacketSim::run() {
  const Tick period = config_.telemetry_period_ns;
  const bool sampling = config_.telemetry != nullptr && period > 0;
  // First boundary at one full period (a t=0 sample would only ever see
  // zeros); next_sample_ persists across run() calls so phased feeding
  // keeps one monotonic series.
  if (sampling && next_sample_ == 0) next_sample_ = period;
  while (!queue_.empty()) {
    const Event e = queue_.pop();
    // Simulated time never rewinds: the heap orders by (at, seq), so a
    // violation here means an engine scheduled into the past -- the
    // exact class of bug that silently breaks bit-identical replay.
    HP_CHECK(e.at >= now_, "PacketSim: event scheduled before now");
    if (sampling && next_sample_ <= e.at) {
      // Sample every boundary at or before this event, *before*
      // processing it: each point is the state as of the boundary tick,
      // pinned to event order, never wall clock.
      refresh_gauges();
      while (next_sample_ <= e.at) {
        config_.telemetry->sample(static_cast<double>(next_sample_) * 1e-9);
        next_sample_ += period;
      }
    }
    now_ = e.at;
    switch (e.kind) {
      case kArrive:
        handle_arrival(e.at, e.arg);
        break;
      case kDrain:
        HP_DCHECK(channel_state_[e.arg].queued > 0,
                  "PacketSim: drain on an empty channel queue");
        --channel_state_[e.arg].queued;
        break;
      case kLinkDown:
      case kLinkUp:
        link_up_[e.arg] = e.kind == kLinkUp ? 1 : 0;
        ++result_.counters.link_events;
        break;
      case kTimer:
        HP_DCHECK(static_cast<bool>(config_.timer_hook),
                  "PacketSim: timer event with no timer_hook");
        config_.timer_hook(e.at, e.arg);
        break;
      default:
        throw std::logic_error("PacketSim: unknown event kind");
    }
  }
  result_.counters.end_ns = now_;
  refresh_gauges();
  return result_;
}
// HP_HOT_END(event_loop)

}  // namespace hp::sim
