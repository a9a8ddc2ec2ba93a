#include "scenario/failure_injector.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace hp::scenario {

const char* to_string(FailurePreset preset) noexcept {
  switch (preset) {
    case FailurePreset::kSingle:
      return "single";
    case FailurePreset::kStorm:
      return "storm";
    case FailurePreset::kFlap:
      return "flap";
    case FailurePreset::kSrlg:
      return "srlg";
  }
  return "unknown";
}

std::optional<FailurePreset> parse_failure_preset(
    std::string_view name) noexcept {
  if (name == "single") return FailurePreset::kSingle;
  if (name == "storm") return FailurePreset::kStorm;
  if (name == "flap") return FailurePreset::kFlap;
  if (name == "srlg") return FailurePreset::kSrlg;
  return std::nullopt;
}

namespace {

/// Uniform [0, 1) from the engine's raw 64-bit output (53-bit mantissa
/// scale).  Hand-rolled: the standard distributions are
/// implementation-defined, and the schedule must be a pure function of
/// the seed on every standard library.
double next_unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Uniform index in [0, n).  Modulo bias is negligible (n is tiny
/// against 2^64) and the result is deterministic everywhere.
std::size_t next_index(std::mt19937_64& rng, std::size_t n) {
  return static_cast<std::size_t>(rng() % n);
}

/// Unit-mean exponential dwell, for flap MTBF/MTTR cycles.
double next_exponential(std::mt19937_64& rng) {
  return -std::log(1.0 - next_unit(rng));
}

struct DuplexLink {
  netsim::NodeIndex a = 0;
  netsim::NodeIndex b = 0;
};

/// The failure population: duplex router-router adjacencies, one entry
/// per pair, in link-index order (deterministic).
std::vector<DuplexLink> eligible_links(const netsim::Topology& topo) {
  std::vector<DuplexLink> out;
  for (netsim::LinkIndex l = 0; l < topo.link_count(); ++l) {
    const netsim::Link& link = topo.link(l);
    if (link.from >= link.to) continue;  // one direction per duplex pair
    if (topo.node(link.from).kind != netsim::NodeKind::kRouter) continue;
    if (topo.node(link.to).kind != netsim::NodeKind::kRouter) continue;
    if (!topo.link_between(link.to, link.from)) continue;
    out.push_back({link.from, link.to});
  }
  return out;
}

/// First `want` entries of a deterministic partial Fisher-Yates
/// shuffle of [0, n).
std::vector<std::size_t> pick_distinct(std::mt19937_64& rng, std::size_t want,
                                       std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  const std::size_t take = std::min(want, n);
  for (std::size_t i = 0; i < take; ++i) {
    std::swap(idx[i], idx[i + next_index(rng, n - i)]);
  }
  idx.resize(take);
  return idx;
}

LinkFailure make_event(double at, const DuplexLink& link, bool restore) {
  LinkFailure f;
  f.at_fraction = at;
  f.a = link.a;
  f.b = link.b;
  f.restore = restore;
  return f;
}

}  // namespace

std::vector<LinkFailure> make_failure_schedule(
    const netsim::Topology& topo, const FailureInjectorParams& params) {
  if (!(params.start_fraction >= 0.0) || !(params.end_fraction <= 1.0) ||
      !(params.start_fraction < params.end_fraction)) {
    throw std::invalid_argument(
        "make_failure_schedule: fraction window must satisfy "
        "0 <= start < end <= 1");
  }
  const std::vector<DuplexLink> links = eligible_links(topo);
  if (links.empty()) {
    throw std::invalid_argument(
        "make_failure_schedule: topology has no duplex router link");
  }
  // Seed-mix so seed 0/1/2 do not share low-entropy engine states.
  std::mt19937_64 rng(params.seed * 0x9E3779B97F4A7C15ull +
                      0xD1B54A32D192ED03ull);
  const double span = params.end_fraction - params.start_fraction;
  const std::size_t count = std::max<std::size_t>(params.count, 1);
  std::vector<LinkFailure> schedule;

  switch (params.preset) {
    case FailurePreset::kSingle: {
      const auto chosen = pick_distinct(rng, count, links.size());
      std::vector<double> at(chosen.size());
      for (double& f : at) f = params.start_fraction + span * next_unit(rng);
      std::sort(at.begin(), at.end());
      for (std::size_t i = 0; i < chosen.size(); ++i) {
        schedule.push_back(make_event(at[i], links[chosen[i]], false));
      }
      break;
    }
    case FailurePreset::kStorm: {
      // Correlated storms: every duplex link of the epicentre fails at
      // the same instant -- the shape single-failure protection cannot
      // fully absorb, exercising the lazy-recompile path.
      std::vector<netsim::NodeIndex> routers;
      for (const DuplexLink& l : links) {
        routers.push_back(l.a);
        routers.push_back(l.b);
      }
      std::ranges::sort(routers);
      routers.erase(std::unique(routers.begin(), routers.end()),
                    routers.end());
      const auto chosen = pick_distinct(rng, count, routers.size());
      std::vector<double> at(chosen.size());
      for (double& f : at) f = params.start_fraction + span * next_unit(rng);
      std::sort(at.begin(), at.end());
      for (std::size_t i = 0; i < chosen.size(); ++i) {
        const netsim::NodeIndex node = routers[chosen[i]];
        for (const DuplexLink& l : links) {
          if (l.a == node || l.b == node) {
            schedule.push_back(make_event(at[i], l, false));
          }
        }
      }
      break;
    }
    case FailurePreset::kFlap: {
      if (!(params.mean_up_fraction > 0.0) ||
          !(params.mean_down_fraction > 0.0)) {
        throw std::invalid_argument(
            "make_failure_schedule: flap dwell means must be > 0");
      }
      const auto chosen = pick_distinct(rng, count, links.size());
      for (const std::size_t c : chosen) {
        // Alternate down/up with exponential dwells until the window
        // closes; a cycle whose restore would land past the window
        // leaves the link down (the tail of the run sees the outage).
        // A first up-dwell past the window would leave the link never
        // failing, so that first failure is drawn inside the window.
        double t = params.start_fraction +
                   params.mean_up_fraction * next_exponential(rng);
        if (t >= params.end_fraction) {
          t = params.start_fraction + span * next_unit(rng);
        }
        while (t < params.end_fraction) {
          schedule.push_back(make_event(t, links[c], false));
          const double down = params.mean_down_fraction * next_exponential(rng);
          if (t + down >= params.end_fraction) break;
          t += down;
          schedule.push_back(make_event(t, links[c], true));
          t += params.mean_up_fraction * next_exponential(rng);
        }
      }
      break;
    }
    case FailurePreset::kSrlg: {
      // Shared-risk link groups: a conduit cut takes several distinct
      // links down at one instant.  Unlike kStorm the group need not
      // share an endpoint, so k-disjoint backups that avoid one failed
      // wire can still ride through another group member.
      if (params.srlg_size == 0) {
        throw std::invalid_argument(
            "make_failure_schedule: srlg_size must be >= 1");
      }
      for (std::size_t event = 0; event < count; ++event) {
        const double at = params.start_fraction + span * next_unit(rng);
        for (const std::size_t c :
             pick_distinct(rng, params.srlg_size, links.size())) {
          schedule.push_back(make_event(at, links[c], false));
        }
      }
      break;
    }
  }
  std::ranges::stable_sort(schedule, {}, &LinkFailure::at_fraction);
  return schedule;
}

}  // namespace hp::scenario
