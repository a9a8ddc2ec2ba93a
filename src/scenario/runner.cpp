#include "scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/shard.hpp"

namespace hp::scenario {

namespace {

/// One worker's walk over its slice: fill private batch buffers
/// (skipping dead pairs), stream them through the compiled fabric and
/// check each result against its pair's expectation.  Multi-segment
/// lanes fill their own batch and stream through the pooled
/// forward_batch_segmented -- the same interleaved fold walk as the
/// single-label batch, just carrying each lane's pooled labels.
void replay_slice(const polka::CompiledFabric& fabric,
                  std::span<const polka::RouteLabel> labels,
                  std::span<const std::uint32_t> ingress,
                  std::span<const std::uint32_t> index,
                  std::span<const polka::PacketResult> expected,
                  std::span<const std::uint8_t> alive,
                  const SegmentTable& segments, std::size_t batch_size,
                  std::size_t max_hops, ScenarioReport& out) {
  const auto slice_start = std::chrono::steady_clock::now();
  std::vector<polka::RouteLabel> batch_labels(batch_size);
  std::vector<std::uint32_t> batch_firsts(batch_size);
  std::vector<std::uint32_t> batch_index(batch_size);
  std::vector<polka::PacketResult> batch_results(batch_size);
  // Segmented-lane buffers exist only when the stream has segments.
  const std::size_t seg_capacity = segments.refs.empty() ? 0 : batch_size;
  std::vector<polka::SegmentRef> seg_refs(seg_capacity);
  std::vector<std::uint32_t> seg_firsts(seg_capacity);
  std::vector<std::uint32_t> seg_index(seg_capacity);
  std::vector<polka::PacketResult> seg_results(seg_capacity);
  std::size_t fill = 0;
  std::size_t seg_fill = 0;
  // HP_HOT_BEGIN(replay_slice)
  // Per-packet lane fill + batch flushes.  The buffers above are the
  // slice's only allocations; from here on the loop must stay
  // growth-free so replay cost is O(packets) folds, not allocator
  // traffic (lint rule hot-path-purity; pinned by alloc_guard_test's
  // packet-count-independent allocation assertion).
  auto score = [&](const polka::PacketResult& result, std::uint32_t lane) {
    if (result.ttl_expired) {
      ++out.ttl_expired;
    } else if (result != expected[lane]) {
      ++out.wrong_egress;
    }
  };
  auto flush = [&] {
    if (fill == 0) return;
    const std::size_t mods = fabric.forward_batch(
        std::span<const polka::RouteLabel>(batch_labels.data(), fill),
        std::span<const std::uint32_t>(batch_firsts.data(), fill),
        std::span<polka::PacketResult>(batch_results.data(), fill), max_hops);
    out.mod_operations += mods;
    for (std::size_t i = 0; i < fill; ++i) {
      score(batch_results[i], batch_index[i]);
    }
    out.packets += fill;
    fill = 0;
  };
  auto flush_segmented = [&] {
    if (seg_fill == 0) return;
    const std::size_t mods = fabric.forward_batch_segmented(
        segments.labels, segments.waypoints,
        std::span<const polka::SegmentRef>(seg_refs.data(), seg_fill),
        std::span<const std::uint32_t>(seg_firsts.data(), seg_fill),
        std::span<polka::PacketResult>(seg_results.data(), seg_fill),
        max_hops);
    out.mod_operations += mods;
    for (std::size_t i = 0; i < seg_fill; ++i) {
      score(seg_results[i], seg_index[i]);
    }
    out.packets += seg_fill;
    seg_fill = 0;
  };
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::uint32_t lane = index[i];
    if (!alive.empty() && !alive[lane]) {
      ++out.dropped_packets;
      continue;
    }
    if (!segments.refs.empty() && segments.refs[lane].label_count > 1) {
      const polka::SegmentRef& ref = segments.refs[lane];
      seg_refs[seg_fill] = ref;
      seg_firsts[seg_fill] = ingress[i];
      seg_index[seg_fill] = lane;
      ++out.segmented_packets;
      out.segment_swaps += ref.label_count - 1;
      if (++seg_fill == batch_size) flush_segmented();
      continue;
    }
    batch_labels[fill] = labels[i];
    batch_firsts[fill] = ingress[i];
    batch_index[fill] = lane;
    ++fill;
    if (fill == batch_size) flush();
  }
  flush();
  flush_segmented();
  // HP_HOT_END(replay_slice)
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - slice_start)
                    .count();
}

}  // namespace

ScenarioReport replay_shards(const polka::CompiledFabric& fabric,
                             std::span<const polka::RouteLabel> labels,
                             std::span<const std::uint32_t> ingress,
                             std::span<const std::uint32_t> index,
                             std::span<const polka::PacketResult> expected,
                             std::span<const std::uint8_t> alive,
                             SegmentTable segments, unsigned threads,
                             std::size_t batch_size, std::size_t max_hops,
                             obs::MetricRegistry* metrics) {
  if (labels.size() != ingress.size() || labels.size() != index.size()) {
    throw std::invalid_argument("replay_shards: span length mismatch");
  }
  if (batch_size == 0) {
    throw std::invalid_argument("replay_shards: batch_size must be > 0");
  }
  if (!segments.refs.empty() && segments.refs.size() < expected.size()) {
    throw std::invalid_argument(
        "replay_shards: segment refs do not cover every lane");
  }
  const std::size_t total = labels.size();
  std::size_t workers = std::max<unsigned>(threads, 1);
  workers = std::min(workers, std::max<std::size_t>(total, 1));

  const auto start = std::chrono::steady_clock::now();
  std::vector<ScenarioReport> partial(workers);
  if (workers == 1) {
    replay_slice(fabric, labels, ingress, index, expected, alive, segments,
                 batch_size, max_hops, partial[0]);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      const auto [begin, end] = shard_bounds(total, w, workers);
      pool.emplace_back([&, w, begin = begin, end = end] {
        replay_slice(fabric, labels.subspan(begin, end - begin),
                     ingress.subspan(begin, end - begin),
                     index.subspan(begin, end - begin), expected, alive,
                     segments, batch_size, max_hops, partial[w]);
      });
    }
    for (auto& t : pool) t.join();
  }
  ScenarioReport report;
  report.fold_kernel = fabric.kernel();
  // Worker partials follow the documented shard-merge schema: counters
  // sum.  Each partial's `seconds` is its own slice's wall clock;
  // concurrent slices must not be summed, so the merged value is
  // overwritten below with the clock measured around the join.
  for (const ScenarioReport& p : partial) report.merge_from(p);
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (metrics != nullptr) {
    // The merged report owns every replay.* count; the registry gets
    // one copy per call, after the join -- no worker touches it.
    metrics->counter("replay.packets").add(report.packets);
    metrics->counter("replay.folds").add(report.mod_operations);
    metrics->counter("replay.wrong_egress").add(report.wrong_egress);
    metrics->counter("replay.ttl_expired").add(report.ttl_expired);
    metrics->counter("replay.dropped_packets").add(report.dropped_packets);
    metrics->counter("replay.segmented_packets")
        .add(report.segmented_packets);
    metrics->counter("replay.segment_swaps").add(report.segment_swaps);
    metrics->counter("replay.slices").add(workers);
    obs::Histogram& wall = metrics->histogram("replay.slice_ns");
    for (const ScenarioReport& p : partial) {
      wall.record(static_cast<std::uint64_t>(std::llround(p.seconds * 1e9)));
    }
  }
  return report;
}

ScenarioReport ScenarioRunner::run(BuiltFabric& fabric,
                                   PacketStream& stream) const {
  // Hand the taps to the fabric too, so failure repairs below show up
  // as compile.* metrics/phases (skip when we have none to offer --
  // the caller may have attached its own).
  if (options_.metrics != nullptr || options_.trace != nullptr) {
    fabric.set_observability(options_.metrics, options_.trace);
  }
  const std::size_t total = stream.size();
  // Protection is armed and the whole schedule played against the
  // control plane before any packet moves; the epochs below only apply
  // the resulting route versions at their stream positions.
  RouteTimeline timeline;
  {
    obs::TraceScope scope(options_.trace, "replay.failover", "replay");
    timeline = build_route_timeline(fabric, stream, options_.failures,
                                    options_.protection_k);
  }
  // Compile the flattened view before any thread is spawned: the lazy
  // compiled() cache is not thread-safe to build concurrently.
  const polka::CompiledFabric& fast = fabric.compiled();

  // Version refs index the timeline's pool once it has one; the stream
  // takes it over so its refs stay valid after the run.
  if (!timeline.seg_labels.empty()) {
    stream.seg_labels = std::move(timeline.seg_labels);
    stream.seg_waypoints = std::move(timeline.seg_waypoints);
  }
  // Streams built before segmentation (or by hand) may lack refs; give
  // every lane a default single-label ref so a version can upgrade it.
  if (stream.seg_refs.size() < stream.pairs.size()) {
    stream.seg_refs.resize(stream.pairs.size());
  }
  std::vector<std::uint8_t> alive(stream.pairs.size(), 1);
  // Contiguous copy of the per-pair expectations (TrafficPair embeds
  // them with a stride); refreshed whenever a version rewrites one.
  std::vector<polka::PacketResult> expected(stream.pairs.size());
  for (std::size_t i = 0; i < stream.pairs.size(); ++i) {
    expected[i] = stream.pairs[i].expected;
  }

  ScenarioReport report;
  report.fold_kernel = fast.kernel();
  std::size_t done = 0;
  auto replay_to = [&](std::size_t upto) {
    if (upto <= done) return;
    obs::TraceScope epoch_scope(options_.trace, "replay.epoch", "replay");
    const std::size_t count = upto - done;
    const ScenarioReport epoch = replay_shards(
        fast,
        std::span<const polka::RouteLabel>(stream.labels.data() + done, count),
        std::span<const std::uint32_t>(stream.ingress.data() + done, count),
        std::span<const std::uint32_t>(stream.pair.data() + done, count),
        expected, alive,
        SegmentTable{stream.seg_labels, stream.seg_waypoints, stream.seg_refs},
        options_.threads, options_.batch_size, options_.max_hops,
        options_.metrics);
    // Sequential epoch partials: counters and wall clock both sum.
    report.merge_from(epoch);
    if (options_.metrics != nullptr) {
      options_.metrics->counter("replay.epochs").add(1);
    }
    done = upto;
  };
  // Stream position of event e (the end of the stream past the last).
  auto position = [&](std::size_t e) {
    if (e >= timeline.events.size()) return total;
    const auto at = static_cast<std::size_t>(std::llround(
        timeline.events[e].at_fraction * static_cast<double>(total)));
    return std::clamp(at, done, total);
  };

  std::size_t next_version = 0;
  for (std::size_t e = 0; e < timeline.events.size(); ++e) {
    replay_to(position(e));
    // Adopt the event's versions and rewrite the unreplayed tail's
    // labels in one pass; severed lanes drop their remaining packets.
    std::unordered_map<std::uint32_t, polka::RouteLabel> new_label;
    std::vector<std::uint32_t> window_lanes;
    for (; next_version < timeline.versions.size() &&
           timeline.versions[next_version].event == e;
         ++next_version) {
      const RouteVersion& v = timeline.versions[next_version];
      if (v.kind == Adoption::kSevered) {
        alive[v.lane] = 0;
        continue;
      }
      alive[v.lane] = 1;
      expected[v.lane] = v.expected;
      stream.pairs[v.lane].expected = v.expected;
      stream.seg_refs[v.lane] = v.ref;
      new_label.insert_or_assign(v.lane, v.label);
      if (v.kind == Adoption::kRecompile) window_lanes.push_back(v.lane);
    }
    for (std::size_t i = done; i < total && !new_label.empty(); ++i) {
      const auto it = new_label.find(stream.pair[i]);
      if (it != new_label.end()) stream.labels[i] = it->second;
    }

    // Convergence-loss model: each *recompiled* lane loses its own next
    // loss_window_per_recompile packets.  The tail is chopped at each
    // lane's window end and replayed with the still-converging lanes
    // masked dead, so drops thread through the normal shard accounting
    // and stay per-pair exact.  Swapped lanes never enter this block:
    // that asymmetry is what "hitless" means.
    if (window_lanes.empty() || options_.loss_window_per_recompile == 0) {
      continue;
    }
    // Windows never run past the next event.
    const std::size_t bound = position(e + 1);
    std::unordered_map<std::uint32_t, std::size_t> remaining;
    for (const std::uint32_t lane : window_lanes) {
      remaining.emplace(lane, options_.loss_window_per_recompile);
      alive[lane] = 0;
    }
    // A lane's window ends after its last lost packet, or at the bound
    // when it outlives the inter-event gap (or the stream).
    std::vector<std::pair<std::size_t, std::uint32_t>> window_end;
    for (std::size_t i = done; i < bound && !remaining.empty(); ++i) {
      const auto it = remaining.find(stream.pair[i]);
      if (it != remaining.end() && --it->second == 0) {
        window_end.emplace_back(i + 1, it->first);
        remaining.erase(it);
      }
    }
    for (const auto& [lane, left] : remaining) {
      window_end.emplace_back(bound, lane);
    }
    for (const auto& [end, lane] : window_end) {
      replay_to(end);
      alive[lane] = 1;  // this lane converged; it forwards again
    }
  }
  replay_to(total);

  // Every replay drop is a failover loss: a severed lane's packets
  // until a version revives it, or a recompiled lane's window.
  report.failover_packets_lost = report.dropped_packets;
  report.rerouted_pairs = timeline.totals.rerouted_pairs;
  report.backup_swapped_pairs = timeline.totals.backup_swapped_pairs;
  report.lazy_repaired_pairs = timeline.totals.lazy_repaired_pairs;
  report.unroutable_pairs = timeline.totals.unroutable_pairs;
  report.window_recompiles = timeline.totals.window_recompiles;
  if (options_.metrics != nullptr) {
    obs::MetricRegistry& reg = *options_.metrics;
    for (const LinkFailure& event : timeline.events) {
      reg.counter(event.restore ? "replay.failover.restores"
                                : "replay.failover.failures")
          .add(1);
    }
    if (!timeline.events.empty()) {
      reg.counter("replay.failover.swaps")
          .add(timeline.totals.backup_swapped_pairs);
      reg.counter("replay.failover.window_recompiles")
          .add(timeline.totals.window_recompiles);
      reg.counter("replay.failover.lazy_repairs")
          .add(timeline.totals.lazy_repaired_pairs);
      reg.counter("replay.failover.packets_lost")
          .add(report.failover_packets_lost);
      reg.counter("replay.failover.unroutable_pairs")
          .add(timeline.totals.unroutable_pairs);
    }
    // Backup-path stretch in percent: deterministic content (a pure
    // path-length ratio).
    for (const double stretch : timeline.swap_stretch) {
      reg.histogram("replay.failover.stretch_pct")
          .record(static_cast<std::uint64_t>(std::llround(stretch * 100.0)));
    }
    reg.counter("replay.rerouted_pairs").add(report.rerouted_pairs);
  }
  return report;
}

}  // namespace hp::scenario
