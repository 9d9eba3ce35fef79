// In-band link-state dissemination (paper §6.2, Step 2).
//
// At the end of each measurement period a node broadcasts the state
// (normalized rate + channel occupancy) of its adjacent wireless links
// whose state changed. Nodes in the *transmitter's dominating set* — a
// minimal subset of its one-hop neighbors whose neighborhoods cover its
// two-hop neighborhood — rebroadcast once, so every node within two hops
// of the origin receives the state.
//
// Broadcasts ride the real MAC (kControl frames: DIFS + backoff, no
// RTS/CTS, no ACK) and can be lost to collisions; receivers keep the
// last value heard. The dissemination tests measure the latency and
// delivery ratio of this machinery under saturated data load, which is
// what justifies running the default GMP controller with out-of-band
// control (DESIGN.md §2, substitution 3).
//
// Self-healing (DESIGN.md §13). Three additions make the backbone
// survive churn, all inert in fault-free runs:
//
//   * Dominating-set repair: when the network has a FaultPlane, the
//     service subscribes to node/link transitions and greedily re-covers
//     only the affected 2-hop neighborhoods — no global rebuild — so a
//     crashed relay's coverage hole closes as soon as the fault lands.
//   * Reliable announcements (opt-in, enableReliability): a relay's
//     overheard rebroadcast is an implicit ack (serval-style); origins
//     retransmit a bounded number of times under exponential backoff
//     with seeded jitter (named stream "dissemination") until every
//     currently-alive relay has echoed.
//   * Origin-death TTL: per-link cached state expires `stateTtl` after
//     it was last refreshed, so a crashed origin's "last value heard"
//     ages out instead of poisoning rate computation forever.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "obs/trace.hpp"
#include "phys/frame.hpp"
#include "sim/fault_plane.hpp"
#include "sim/timer.hpp"
#include "topology/link.hpp"
#include "util/rng.hpp"

namespace maxmin::gmp {

/// State of one wireless link as carried in dissemination messages.
struct LinkStateAd {
  topo::Link link;
  double normRate = 0.0;
  double occupancy = 0.0;
};

/// The broadcast payload: origin + per-origin sequence number for
/// duplicate suppression, plus the advertised link states.
struct LinkStateMessage final : phys::ControlMessage {
  topo::NodeId origin = topo::kNoNode;
  std::int64_t seq = 0;
  std::vector<LinkStateAd> states;
};

/// Retransmission policy for reliable announcements. The ack timeout
/// doubles per attempt (exponential backoff) and every wait is stretched
/// by a seeded jitter draw so synchronized origins do not retransmit in
/// lockstep.
struct ReliabilityParams {
  int maxRetransmits = 3;
  Duration ackTimeout = Duration::millis(80);
  double backoffFactor = 2.0;
  double jitterFrac = 0.5;  ///< wait *= 1 + jitterFrac * U(0,1)
};

class LinkStateDissemination final : public sim::FaultListener {
 public:
  /// Sequence numbers live in a small wrapping space (a real header
  /// would carry 16 bits); freshness uses RFC 1982 serial-number
  /// comparison so the protocol survives wraparound.
  static constexpr std::int64_t kSeqModulus = std::int64_t{1} << 16;

  /// True iff `a` is a newer sequence number than `b` under serial
  /// arithmetic modulo kSeqModulus.
  static bool seqNewer(std::int64_t a, std::int64_t b);

  /// Attaches a control handler to every node's stack. The service must
  /// outlive the network's control traffic. If the network already has a
  /// FaultPlane, the relay backbone subscribes to it for repair; enable
  /// faults first (or call attachFaultPlane() afterwards).
  explicit LinkStateDissemination(net::Network& net);

  /// Subscribe to the network's FaultPlane for dominating-set repair.
  /// Idempotent; no-op when the network has no fault plane.
  void attachFaultPlane();

  /// Broadcast `states` from `origin` (one kControl frame; relays fire
  /// as receptions happen).
  void announce(topo::NodeId origin, std::vector<LinkStateAd> states);

  /// Link states node `at` currently knows (latest value heard per
  /// link), including its own announcements. Entries older than
  /// stateTtl() are expired on read.
  const std::map<topo::Link, LinkStateAd>& knownStates(topo::NodeId at);

  /// Nodes that have received origin's announcement with sequence `seq`.
  std::vector<topo::NodeId> reachedBy(topo::NodeId origin,
                                      std::int64_t seq) const;

  /// The current relay (dominating) set of `origin` — repaired in place
  /// on fault transitions when a fault plane is attached.
  [[nodiscard]] const std::vector<topo::NodeId>& relaysOf(
      topo::NodeId origin) const {
    return relays_.at(static_cast<std::size_t>(origin));
  }

  /// Turn on implicit-ack retransmissions for subsequent announce()
  /// calls. Jitter and backoff draws come from the named Rng stream
  /// "dissemination" of the network's seed, so enabling reliability
  /// never perturbs other seeded subsystems.
  void enableReliability(const ReliabilityParams& params);

  /// On-air bytes of a message carrying `n` link states (header + n
  /// compact entries); determines the broadcast airtime.
  static DataSize messageSize(std::size_t states);

  [[nodiscard]] std::int64_t messagesSent() const { return messagesSent_; }
  [[nodiscard]] std::int64_t rebroadcasts() const { return rebroadcasts_; }
  [[nodiscard]] std::int64_t duplicatesDropped() const { return duplicatesDropped_; }
  [[nodiscard]] std::int64_t staleDropped() const { return staleDropped_; }
  [[nodiscard]] std::int64_t rebootAccepts() const { return rebootAccepts_; }
  /// Relay-set recomputations performed by fault-transition repair.
  [[nodiscard]] std::int64_t relayRepairs() const { return relayRepairs_; }
  /// Overheard rebroadcasts credited as delivery confirmations.
  [[nodiscard]] std::int64_t implicitAcks() const { return implicitAcks_; }
  [[nodiscard]] std::int64_t retransmits() const { return retransmits_; }
  /// Announcements abandoned after maxRetransmits without full acks.
  [[nodiscard]] std::int64_t deliveryFailures() const { return deliveryFailures_; }
  /// Cached link-state entries expired by the origin-death TTL.
  [[nodiscard]] std::int64_t expiredStates() const { return expiredStates_; }

  /// How long a receiver trusts its recorded per-origin sequence high
  /// water mark. After this long without hearing the origin, any
  /// sequence number is accepted again — the path by which an origin
  /// that rebooted (and restarted at seq 0) re-enters the network
  /// despite receivers holding a higher stale seq.
  void setFreshnessTtl(Duration ttl) { freshnessTtl_ = ttl; }

  /// How long a cached link-state entry stays valid without being
  /// refreshed by a new announcement (the origin-death TTL).
  void setStateTtl(Duration ttl) { stateTtl_ = ttl; }
  [[nodiscard]] Duration stateTtl() const { return stateTtl_; }

  /// Attach a structured trace sink (not owned; nullptr detaches).
  /// Repair/retransmission events are appended at TraceLevel::kEvent.
  void setTraceSink(obs::TraceSink* sink) { trace_ = sink; }

  /// Test hooks: place an origin's counter near wraparound, or reset it
  /// to simulate a reboot that lost the counter.
  void setNextSeqForTest(topo::NodeId origin, std::int64_t seq) {
    nextSeq_[origin] = seq % kSeqModulus;
  }
  /// Canary hook: freeze the dominating sets as computed at construction
  /// (the pre-PR static-backbone behavior). The chaos fuzzer's coverage
  /// oracle must catch this deterministically.
  void disableRepairForTest() { repairEnabled_ = false; }

  // --- sim::FaultListener --------------------------------------------------
  void onNodeDown(std::int32_t node) override;
  void onNodeUp(std::int32_t node) override;
  void onLinkChanged(std::int32_t a, std::int32_t b, bool up) override;

 private:
  void onControl(topo::NodeId receiver, const phys::Frame& frame);

  /// Per-origin freshness at one receiver: the newest sequence accepted
  /// and when it was heard.
  struct OriginFreshness {
    std::int64_t lastSeq = 0;
    TimePoint heardAt;
  };

  /// One announcement awaiting implicit acks at its origin.
  using PendingKey = std::pair<topo::NodeId, std::int64_t>;
  struct PendingAck {
    PendingAck(LinkStateDissemination& d, const PendingKey& k)
        : owner{&d},
          key{k},
          timer{d.net_.simulator(), sim::bind<&PendingAck::fire>(this)} {}
    /// By copy: the timeout may erase this entry.
    void fire() { owner->onAckTimeout(PendingKey{key}); }

    LinkStateDissemination* owner;
    PendingKey key;
    std::shared_ptr<const LinkStateMessage> msg;
    std::set<topo::NodeId> acked;
    int attempts = 0;
    Duration wait = Duration::zero();
    sim::Timer timer;  ///< the retransmit backoff
  };

  [[nodiscard]] bool nodeAlive(topo::NodeId n) const;
  [[nodiscard]] bool linkAlive(topo::NodeId a, topo::NodeId b) const;
  /// Alive relays of `origin` whose echo the origin can expect to hear.
  [[nodiscard]] std::vector<topo::NodeId> expectedEchoes(
      topo::NodeId origin) const;
  /// Greedily re-cover the 2-hop neighborhoods of every given center.
  void repairCenters(const std::vector<topo::NodeId>& centers);
  void armPendingTimer(const PendingKey& key);
  void onAckTimeout(const PendingKey& key);
  void pruneExpired(topo::NodeId at);
  void recordState(topo::NodeId receiver, const LinkStateMessage& msg);

  net::Network& net_;
  sim::FaultPlane* faults_ = nullptr;
  bool repairEnabled_ = true;
  obs::TraceSink* trace_ = nullptr;
  std::optional<ReliabilityParams> reliability_;
  std::optional<Rng> rng_;  ///< named stream "dissemination"; reliability only
  /// relays_[transmitter]: the transmitter's dominating set.
  std::vector<std::vector<topo::NodeId>> relays_;
  /// stores_[node]: latest link states known to the node.
  std::vector<std::map<topo::Link, LinkStateAd>> stores_;
  /// heardAt_[node]: when each stored entry was last refreshed (the
  /// origin-death TTL clock; pruned together with stores_).
  std::vector<std::map<topo::Link, TimePoint>> heardAt_;
  /// seen_[node]: (origin, seq) pairs already processed (dedup).
  std::vector<std::set<std::pair<topo::NodeId, std::int64_t>>> seen_;
  /// latest_[node]: per-origin serial-number high water mark.
  std::vector<std::map<topo::NodeId, OriginFreshness>> latest_;
  std::map<topo::NodeId, std::int64_t> nextSeq_;
  std::map<PendingKey, PendingAck> pending_;
  Duration freshnessTtl_ = Duration::seconds(12.0);  ///< 3 GMP periods
  Duration stateTtl_ = Duration::seconds(12.0);      ///< 3 GMP periods
  std::int64_t messagesSent_ = 0;
  std::int64_t rebroadcasts_ = 0;
  std::int64_t duplicatesDropped_ = 0;
  std::int64_t staleDropped_ = 0;
  std::int64_t rebootAccepts_ = 0;
  std::int64_t relayRepairs_ = 0;
  std::int64_t implicitAcks_ = 0;
  std::int64_t retransmits_ = 0;
  std::int64_t deliveryFailures_ = 0;
  std::int64_t expiredStates_ = 0;
};

}  // namespace maxmin::gmp
