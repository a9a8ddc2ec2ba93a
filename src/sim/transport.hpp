#pragma once
// Closed-loop transport over the packet-level simulator.
//
// PR 6's PacketSim counts ECN marks and tail drops but nothing *reacts*
// to them: the open-loop SimRunner injects every packet on a
// precomputed schedule, so an incast or a failover window simply shows
// raw loss.  Transport closes the loop.  Each flow gets a sender state
// machine driven by the same integer-tick EventQueue as the data plane:
//
//  * an AIMD congestion window -- at most `cwnd` packets outstanding;
//    one additive increase per delivered window, multiplicative
//    decrease (halving, floored at 1) on congestion feedback;
//  * ECN reaction -- the engine's ecn_hook fires when an enqueue
//    crosses a channel's mark threshold, and the transport halves the
//    marked flow's window (at most one cut per RTT-estimate window, so
//    a burst of marks is one signal, not a collapse to 1);
//  * retransmit-on-drop -- a tail drop is reported back to the sender
//    (instant backward congestion notification, in the style of
//    lossless-fabric NACKs / packet trimming) and the sequence is
//    queued for retransmission ahead of new data;
//  * a retransmission timeout -- losses with *no* feedback (a packet
//    that died at a failed link, a TTL kill) are recovered by a per-flow
//    RTO: base = clamp(2 * SRTT, rto_min, rto_max), doubled on every
//    expiry (exponential backoff, capped at rto_max) and reset by the
//    next delivery.  An expiry presumes every outstanding sequence
//    lost, collapses the window to 1 and retransmits oldest-first;
//  * graceful degradation -- a sequence retransmitted more than
//    `max_retries` times abandons its flow: the flow stops sending,
//    releases its timer and is surfaced in the report as abandoned
//    rather than hanging the run (the liveness invariant is
//    completed_flows + abandoned_flows == flows).
//
// Retransmitted packets are ordinary injections: they traverse the same
// CompiledFabric fold kernels as every other packet, and a lane whose
// route was rerouted by the failover machinery (scenario/protection)
// re-resolves its RouteEpoch at each send -- a retransmit issued after
// the control plane adopted the repaired route carries the *new* label,
// which is how packets lost in a switchover window get recovered
// instead of merely counted.
//
// Everything the transport does is a pure function of event order:
// state changes happen inside hook callbacks and timer events on the
// single-threaded simulation clock, so a fixed seed produces a
// bit-identical report across runs and thread counts, failure schedules
// included.

#include <cstdint>
#include <deque>
#include <vector>

#include "polka/label.hpp"
#include "sim/packet_sim.hpp"

namespace hp::obs {
class Histogram;
class MetricRegistry;
}  // namespace hp::obs

namespace hp::sim {

/// Closed-loop knobs (`SimOptions::transport`).  Validated by the
/// Transport constructor with HP_CHECK: init_cwnd >= 1,
/// max_cwnd >= init_cwnd, 1 <= rto_min_ns <= rto_max_ns,
/// max_retries >= 1.
struct TransportOptions {
  bool enabled = false;  ///< open-loop injection when false
  std::uint32_t init_cwnd = 4;  ///< packets in flight at flow start
  std::uint32_t max_cwnd = 64;  ///< additive-increase ceiling
  Tick rto_min_ns = 100'000;    ///< RTO floor (also the SRTT-less base)
  Tick rto_max_ns = 50'000'000;  ///< RTO cap: backoff stops doubling here
  /// Retransmissions of one sequence before its flow is abandoned.
  std::uint32_t max_retries = 8;

  friend bool operator==(const TransportOptions&,
                         const TransportOptions&) noexcept = default;
};

/// Scalar outcome of one closed-loop run (`SimReport::transport`).
/// On an open-loop run `enabled` is false and only the two byte fields
/// are filled (by SimRunner, from the engine's injected and delivered
/// packet counts); every other field stays zero.
struct TransportReport {
  bool enabled = false;
  std::uint64_t packets_sent = 0;  ///< injections, retransmits included
  std::uint64_t retransmits = 0;   ///< second-and-later transmissions
  std::uint64_t timeouts = 0;      ///< RTO expiries
  std::uint64_t ecn_cwnd_cuts = 0;  ///< multiplicative decreases (ECN)
  std::uint64_t drop_cwnd_cuts = 0;  ///< multiplicative decreases (drop)
  std::uint64_t spurious_deliveries = 0;  ///< duplicate arrivals of a seq
  std::uint64_t abandoned_flows = 0;  ///< gave up after max_retries
  std::uint64_t offered_bytes = 0;  ///< logical stream payload
  std::uint64_t goodput_bytes = 0;  ///< first-delivery payload

  friend bool operator==(const TransportReport&,
                         const TransportReport&) noexcept = default;
};

/// One adopted route version of a lane: sends at/after `from` carry
/// this label (and pooled segment ref) and are checked against this
/// delivery expectation.  Timelines are sorted by `from`; entry 0 is
/// the pre-failure route with from = 0.
struct RouteEpoch {
  Tick from = 0;
  polka::RouteLabel label{};
  polka::SegmentRef ref{};
  polka::PacketResult expected{};
};

/// The per-flow sender state machine.  Construct over a wired
/// PacketSim, describe lanes (route-epoch timelines) and flows, then
/// arm() once before PacketSim::run(): arming installs the engine's
/// feedback hooks and schedules every flow's opening timer, after which
/// the whole closed loop plays out inside the event queue.
class Transport {
 public:
  /// `sim` is borrowed and must outlive the Transport; `metrics` (may
  /// be null) receives the sim.tp.cwnd and sim.tp.rto_ns histograms
  /// (the sim.tp.* counters are report() fields, which the runner
  /// copies into its registry after the run).
  /// `packet_bytes` prices offered/goodput bytes.
  Transport(PacketSim& sim, TransportOptions options,
            std::uint64_t packet_bytes, obs::MetricRegistry* metrics);

  /// Register a lane: the route-epoch timeline its flows resolve at
  /// each send.  Throws std::invalid_argument on an empty or unsorted
  /// timeline.
  std::uint32_t add_lane(std::vector<RouteEpoch> epochs);

  /// Register a flow of `packets` logical sequences on `lane`, injected
  /// at fabric node `source`.  The flow opens at `start`; consecutive
  /// sends are paced `pace_ns` apart (the source line rate).  Throws
  /// std::invalid_argument on a bad lane or zero packet count.
  std::uint32_t add_flow(std::uint32_t lane, std::uint32_t source, Tick start,
                         Tick pace_ns, std::uint32_t packets);

  /// Install the PacketSim feedback hooks and schedule every flow's
  /// opening event.  Call exactly once, after the last add_flow and
  /// before PacketSim::run().
  void arm();

  [[nodiscard]] const TransportReport& report() const noexcept {
    return report_;
  }
  [[nodiscard]] std::size_t flow_count() const noexcept {
    return flows_.size();
  }
  [[nodiscard]] std::size_t completed_flows() const noexcept {
    return completed_;
  }

  /// Test/diagnostic view of one flow's closed-loop state.
  struct FlowView {
    std::uint32_t cwnd = 0;      ///< current congestion window
    Tick rto_ns = 0;             ///< current timeout (backoff applied)
    std::uint32_t timeouts = 0;  ///< RTO expiries of this flow
    std::uint32_t delivered = 0;  ///< distinct sequences delivered
    bool completed = false;
    bool abandoned = false;
    Tick fct_ns = 0;  ///< last delivery - first send (completed only)
    std::vector<Tick> timeout_at;  ///< tick of each RTO expiry, in order
  };
  [[nodiscard]] FlowView flow_view(std::uint32_t flow) const;

  /// FCT (ns) of each completed flow, in flow-registration order.
  [[nodiscard]] std::vector<Tick> completed_fct_ns() const;

 private:
  /// Lifecycle of one logical sequence number.
  enum class SeqState : std::uint8_t {
    kPending,      ///< never sent
    kOutstanding,  ///< in flight, unresolved
    kLost,         ///< presumed lost, queued for retransmission
    kDelivered,    ///< first copy arrived
  };

  struct Flow {
    // immutable shape
    std::uint32_t lane = 0;
    std::uint32_t source = 0;
    Tick start = 0;
    Tick pace_ns = 1;
    std::uint32_t total = 0;

    // window state
    std::uint32_t cwnd = 1;
    std::uint32_t ack_credit = 0;  ///< deliveries since the last increase
    std::uint32_t outstanding = 0;
    std::uint32_t next_seq = 0;  ///< first never-sent sequence
    std::uint32_t delivered = 0;
    Tick next_send = 0;   ///< pacing cursor
    Tick next_cut_at = 0;  ///< earliest tick the window may halve again
    /// Earliest tick of the next loss-triggered retransmission: one
    /// fast retransmit per RTT window, else the instant NACK ping-pong
    /// (send, drop, resend, ...) burns max_retries inside a single
    /// congestion event.  An RTO expiry overrides the limit.
    Tick next_fast_rtx = 0;
    bool sent_any = false;
    bool abandoned = false;
    Tick first_send = 0;
    Tick last_delivery = 0;

    // RTO state
    Tick srtt_ns = 0;           ///< smoothed RTT (0 until first sample)
    std::uint32_t backoff = 0;  ///< doublings since the last delivery
    std::uint64_t timer_id = 0;  ///< arm generation; stale fires no-op
    bool timer_armed = false;
    std::uint32_t timeouts = 0;
    std::vector<Tick> timeout_at;

    // per-sequence bookkeeping
    std::vector<SeqState> state;         ///< size total
    std::vector<std::uint32_t> tries;    ///< transmissions so far
    std::vector<Tick> sent_at;           ///< latest transmission tick
    std::vector<std::uint32_t> last_packet;  ///< latest sim packet index
    std::deque<std::uint32_t> lost;      ///< retransmit queue (may go stale)

    /// Sim flow handle per lane epoch, created lazily (a flow whose
    /// route never changes registers exactly one).
    std::vector<std::uint32_t> sim_flow;
  };

  /// One armed timer occurrence; kTimer events carry an index here.
  struct TimerRec {
    std::uint32_t flow = 0;
    std::uint64_t id = 0;  ///< 0 = flow-open kick, else RTO generation
  };

  struct PacketTag {
    std::uint32_t flow = 0;
    std::uint32_t seq = 0;
  };

  // engine callbacks (installed by arm())
  void on_ecn(std::uint32_t sim_flow);
  void on_delivered(Tick t, std::uint32_t sim_flow, std::uint32_t packet);
  void on_dropped(Tick t, std::uint32_t sim_flow, std::uint32_t packet,
                  DropCause cause);
  void on_timer(Tick t, std::uint32_t rec_index);

  void try_send(Flow& f, Tick t);
  void send_seq(Flow& f, std::uint32_t flow_index, std::uint32_t seq, Tick t);
  void cut_window(Flow& f, Tick t, bool ecn);
  void abandon(Flow& f, Tick t);
  void arm_timer(Flow& f, std::uint32_t flow_index, Tick at);
  void disarm_timer(Flow& f);
  [[nodiscard]] Tick rto_base(const Flow& f) const;
  [[nodiscard]] Tick rto_current(const Flow& f) const;
  [[nodiscard]] const RouteEpoch& epoch_at(const Flow& f, Tick at,
                                           std::size_t* index) const;
  std::uint32_t ensure_sim_flow(Flow& f, std::size_t epoch_index);
  [[nodiscard]] bool done(const Flow& f) const noexcept {
    return f.abandoned || f.delivered == f.total;
  }

  PacketSim& sim_;
  TransportOptions options_;
  std::uint64_t packet_bytes_;
  std::vector<std::vector<RouteEpoch>> lanes_;
  std::vector<Flow> flows_;
  std::vector<TimerRec> timers_;
  std::vector<PacketTag> tags_;          ///< sim packet index -> (flow, seq)
  std::vector<std::uint32_t> flow_of_;   ///< sim flow handle -> flow index
  TransportReport report_;
  std::size_t completed_ = 0;
  bool armed_ = false;

  /// Metric handles, all null without a registry (one-branch disabled
  /// path, same pattern as PacketSim::ObsHandles).
  struct ObsHandles {
    obs::Histogram* cwnd = nullptr;
    obs::Histogram* rto_ns = nullptr;
  };
  ObsHandles obs_;
};

}  // namespace hp::sim
