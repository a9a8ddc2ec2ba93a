#include "core/polka_service.hpp"

#include <array>
#include <span>
#include <sstream>
#include <stdexcept>

#include "scenario/runner.hpp"

namespace hp::core {

using hp::netsim::LinkIndex;
using hp::netsim::NodeIndex;
using hp::netsim::NodeKind;

PolkaService::PolkaService(const hp::netsim::Topology& topo,
                           hp::freertr::RouterConfigService& edge)
    : topo_(&topo), edge_(&edge) {
  // Mirror the router subgraph into the PolKA fabric.  Fabric port p of
  // a router corresponds to topo.outgoing(router)[p]; ports toward
  // hosts stay unwired in the fabric (they are egress ports).
  for (NodeIndex n = 0; n < topo.node_count(); ++n) {
    if (topo.node(n).kind != NodeKind::kRouter) continue;
    const unsigned ports =
        static_cast<unsigned>(topo.outgoing(n).size());
    fabric_.add_node(topo.node(n).name, std::max(ports, 1U));
  }
  for (NodeIndex n = 0; n < topo.node_count(); ++n) {
    if (topo.node(n).kind != NodeKind::kRouter) continue;
    const std::size_t from = fabric_.index_of(topo.node(n).name);
    const auto& out = topo.outgoing(n);
    for (unsigned p = 0; p < out.size(); ++p) {
      const NodeIndex neighbour = topo.link(out[p]).to;
      if (topo.node(neighbour).kind == NodeKind::kRouter) {
        fabric_.connect(from, p, fabric_.index_of(topo.node(neighbour).name));
      }
    }
  }
}

void PolkaService::push_config(const std::string& commands) {
  edge_->queue().push(
      hp::freertr::ConfigMessage{next_message_id_++, commands});
  edge_->process_pending();
  const auto& acks = edge_->acks();
  if (!acks.empty() && !acks.back().ok) {
    throw std::invalid_argument("PolkaService: edge rejected config: " +
                                acks.back().error);
  }
}

const Tunnel& PolkaService::define_tunnel(
    unsigned id, const std::vector<std::string>& routers,
    const std::string& egress_host, const std::string& destination_ip) {
  if (routers.size() < 2) {
    throw std::invalid_argument("define_tunnel: need >= 2 routers");
  }
  Tunnel tunnel;
  tunnel.id = id;
  tunnel.routers = routers;
  tunnel.name = "tunnel" + std::to_string(id);
  tunnel.netsim_path = topo_->path_through(routers);

  // Egress port: the last router's topology port toward the host.
  const NodeIndex last = topo_->index_of(routers.back());
  const NodeIndex host = topo_->index_of(egress_host);
  const auto& out = topo_->outgoing(last);
  std::optional<unsigned> egress_port;
  for (unsigned p = 0; p < out.size(); ++p) {
    if (topo_->link(out[p]).to == host) {
      egress_port = p;
      break;
    }
  }
  if (!egress_port) {
    throw std::invalid_argument("define_tunnel: " + routers.back() +
                                " has no link to host " + egress_host);
  }

  std::vector<std::size_t> fabric_path;
  fabric_path.reserve(routers.size());
  for (const std::string& name : routers) {
    fabric_path.push_back(fabric_.index_of(name));
  }
  tunnel.route_id = fabric_.route_for_path(fabric_path, egress_port);

  // Push the freeRtr tunnel definition to the edge.
  std::ostringstream cfg;
  cfg << "interface tunnel" << id << '\n';
  cfg << " tunnel destination " << destination_ip << '\n';
  cfg << " tunnel domain-name";
  for (const std::string& name : routers) cfg << ' ' << name;
  cfg << '\n';
  cfg << " tunnel mode polka\n";
  cfg << "exit\n";
  push_config(cfg.str());

  tunnel_egress_host_[id] = egress_host;
  auto [it, _] = tunnels_.insert_or_assign(id, std::move(tunnel));
  return it->second;
}

void PolkaService::install_access_list(const hp::freertr::AccessList& acl) {
  std::ostringstream cfg;
  cfg << "access-list " << acl.name << " permit " << acl.protocol << ' '
      << acl.source.to_string() << ' ' << acl.destination.to_string();
  if (acl.tos) cfg << " tos " << *acl.tos;
  cfg << '\n';
  push_config(cfg.str());
}

std::uint64_t PolkaService::bind_flow(const std::string& acl_name,
                                      unsigned tunnel_id,
                                      const std::string& nexthop_ip) {
  if (!tunnels_.contains(tunnel_id)) {
    throw std::invalid_argument("bind_flow: unknown tunnel " +
                                std::to_string(tunnel_id));
  }
  std::ostringstream cfg;
  cfg << "pbr " << acl_name << " tunnel " << tunnel_id << " nexthop "
      << nexthop_ip << '\n';
  push_config(cfg.str());
  return edge_->config().revision();
}

const Tunnel& PolkaService::tunnel(unsigned id) const {
  const auto it = tunnels_.find(id);
  if (it == tunnels_.end()) {
    throw std::out_of_range("PolkaService: unknown tunnel " +
                            std::to_string(id));
  }
  return it->second;
}

hp::netsim::Path PolkaService::host_to_host_path(
    unsigned tunnel_id, const std::string& src_host,
    const std::string& dst_host) const {
  const Tunnel& t = tunnel(tunnel_id);
  const NodeIndex src = topo_->index_of(src_host);
  const NodeIndex ingress = topo_->index_of(t.routers.front());
  const NodeIndex egress = topo_->index_of(t.routers.back());
  const NodeIndex dst = topo_->index_of(dst_host);
  const auto in_link = topo_->link_between(src, ingress);
  const auto out_link = topo_->link_between(egress, dst);
  if (!in_link || !out_link) {
    throw std::invalid_argument("host_to_host_path: hosts not attached");
  }
  hp::netsim::Path path;
  path.push_back(*in_link);
  path.insert(path.end(), t.netsim_path.begin(), t.netsim_path.end());
  path.push_back(*out_link);
  return path;
}

namespace {

/// Scalar reference outcome of a tunnel's packet, for batch parity.
hp::polka::PacketResult reference_walk(const hp::polka::PolkaFabric& fabric,
                                       const Tunnel& t) {
  const auto trace =
      fabric.forward(t.route_id, fabric.index_of(t.routers.front()));
  hp::polka::PacketResult r;
  r.egress_node = static_cast<std::uint32_t>(trace.nodes.back());
  r.egress_port = trace.ports.back();
  r.hops = static_cast<std::uint32_t>(trace.nodes.size());
  return r;
}

}  // namespace

BatchForwardReport PolkaService::forward_batch(
    std::size_t packets_per_tunnel) const {
  if (tunnels_.empty()) {
    throw std::logic_error("forward_batch: no tunnels defined");
  }
  const auto& fast = compiled_fabric();
  BatchForwardReport report;
  constexpr std::size_t kChunk = 256;
  std::array<hp::polka::RouteLabel, kChunk> labels;
  std::array<hp::polka::PacketResult, kChunk> results;
  for (const auto& [id, t] : tunnels_) {
    const auto label = hp::polka::pack_label(t.route_id);
    const std::size_t first = fabric_.index_of(t.routers.front());
    const auto expected = reference_walk(fabric_, t);
    if (label) labels.fill(*label);  // constant per tunnel
    std::size_t remaining = packets_per_tunnel;
    while (remaining > 0) {
      const std::size_t n = std::min(kChunk, remaining);
      if (label) {
        report.mod_operations += fast.forward_batch(
            std::span<const hp::polka::RouteLabel>(labels.data(), n), first,
            std::span<hp::polka::PacketResult>(results.data(), n));
        for (std::size_t i = 0; i < n; ++i) {
          if (results[i] != expected) ++report.mismatches;
        }
      } else {
        // Oversized label: scalar slow path still counts the packets.
        for (std::size_t i = 0; i < n; ++i) {
          const auto trace = fabric_.forward(t.route_id, first);
          report.mod_operations += trace.mod_operations;
        }
      }
      report.packets += n;
      remaining -= n;
    }
  }
  return report;
}

BatchForwardReport PolkaService::replay_workload(
    const std::vector<hp::netsim::ScheduledFlow>& flows,
    std::size_t batch_size, double mtu_bytes, unsigned threads) const {
  if (tunnels_.empty()) {
    throw std::logic_error("replay_workload: no tunnels defined");
  }
  if (batch_size == 0) {
    throw std::invalid_argument("replay_workload: batch_size must be > 0");
  }
  const auto& fast = compiled_fabric();

  // Per-tunnel constants, indexed by round-robin position.  A tunnel
  // whose routeID does not fit a 64-bit label takes the scalar slow
  // path (no label), mirroring PolkaFabric::forward_batch's fallback.
  struct TunnelLane {
    std::optional<hp::polka::RouteLabel> label;
    const hp::polka::RouteId* route = nullptr;
    std::uint32_t first = 0;
    hp::polka::PacketResult expected;
  };
  std::vector<TunnelLane> lanes;
  lanes.reserve(tunnels_.size());
  for (const auto& [id, t] : tunnels_) {
    TunnelLane lane;
    lane.label = hp::polka::pack_label(t.route_id);
    lane.route = &t.route_id;
    lane.first =
        static_cast<std::uint32_t>(fabric_.index_of(t.routers.front()));
    lane.expected = reference_walk(fabric_, t);
    lanes.push_back(lane);
  }

  // Oversized routeID: walk one flow's packets on the polynomial slow
  // path (shared by the threaded and streaming branches below).
  BatchForwardReport report;
  auto walk_slow_lane = [&](const TunnelLane& lane, std::size_t packets) {
    for (std::size_t i = 0; i < packets; ++i) {
      const auto trace = fabric_.forward(*lane.route, lane.first);
      report.mod_operations += trace.mod_operations;
      if (trace.nodes.empty() ||
          trace.nodes.back() != lane.expected.egress_node ||
          trace.ports.back() != lane.expected.egress_port) {
        ++report.mismatches;
      }
    }
    report.packets += packets;
  };

  if (threads > 1) {
    // Materialize the label stream and shard it across workers via the
    // scenario engine's replay primitive.
    std::vector<hp::polka::RouteLabel> labels;
    std::vector<std::uint32_t> firsts;
    std::vector<std::uint32_t> lane_index;
    std::vector<hp::polka::PacketResult> expected(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      expected[i] = lanes[i].expected;
    }
    std::size_t next_lane = 0;
    for (const auto& flow : flows) {
      const std::size_t lane_id = next_lane;
      const TunnelLane& lane = lanes[lane_id];
      next_lane = (next_lane + 1) % lanes.size();
      const std::size_t packets =
          hp::netsim::packet_count(flow.spec, mtu_bytes);
      if (!lane.label) {
        walk_slow_lane(lane, packets);
        continue;
      }
      labels.insert(labels.end(), packets, *lane.label);
      firsts.insert(firsts.end(), packets, lane.first);
      lane_index.insert(lane_index.end(), packets,
                        static_cast<std::uint32_t>(lane_id));
    }
    const auto sharded = hp::scenario::replay_shards(
        fast, labels, firsts, lane_index, expected, {},
        hp::scenario::SegmentTable{}, threads, batch_size);
    report.packets += sharded.packets;
    report.mod_operations += sharded.mod_operations;
    report.mismatches += sharded.wrong_egress;
    return report;
  }

  // Reusable batch buffers: the replay loop itself never allocates.
  std::vector<hp::polka::RouteLabel> labels(batch_size);
  std::vector<std::uint32_t> firsts(batch_size);
  std::vector<hp::polka::PacketResult> results(batch_size);
  std::vector<std::uint32_t> lane_of(batch_size);

  std::size_t fill = 0;
  auto flush = [&] {
    if (fill == 0) return;
    report.mod_operations += fast.forward_batch(
        std::span<const hp::polka::RouteLabel>(labels.data(), fill),
        std::span<const std::uint32_t>(firsts.data(), fill),
        std::span<hp::polka::PacketResult>(results.data(), fill));
    for (std::size_t i = 0; i < fill; ++i) {
      if (results[i] != lanes[lane_of[i]].expected) ++report.mismatches;
    }
    report.packets += fill;
    fill = 0;
  };

  std::size_t next_lane = 0;
  for (const auto& flow : flows) {
    const TunnelLane& lane = lanes[next_lane];
    const std::uint32_t lane_index = static_cast<std::uint32_t>(next_lane);
    next_lane = (next_lane + 1) % lanes.size();
    std::size_t packets = hp::netsim::packet_count(flow.spec, mtu_bytes);
    if (!lane.label) {
      walk_slow_lane(lane, packets);
      continue;
    }
    while (packets > 0) {
      labels[fill] = *lane.label;
      firsts[fill] = lane.first;
      lane_of[fill] = lane_index;
      ++fill;
      --packets;
      if (fill == batch_size) flush();
    }
  }
  flush();
  return report;
}

std::size_t PolkaService::verify_tunnel(unsigned id) const {
  const Tunnel& t = tunnel(id);
  const std::size_t first = fabric_.index_of(t.routers.front());
  const auto trace = fabric_.forward(t.route_id, first);
  if (trace.nodes.size() != t.routers.size()) {
    throw std::logic_error("verify_tunnel: trace length mismatch for " +
                           t.name);
  }
  for (std::size_t i = 0; i < t.routers.size(); ++i) {
    if (fabric_.node(trace.nodes[i]).name != t.routers[i]) {
      throw std::logic_error("verify_tunnel: trace diverges at hop " +
                             std::to_string(i) + " for " + t.name);
    }
  }
  return trace.mod_operations;
}

}  // namespace hp::core
