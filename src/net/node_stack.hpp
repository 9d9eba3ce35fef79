// Per-node network layer: queueing, congestion-avoidance backpressure,
// forwarding, local flow sources, and measurement.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "mac/dcf.hpp"
#include "mac/frame_client.hpp"
#include "net/config.hpp"
#include "net/flow.hpp"
#include "net/measurement.hpp"
#include "net/packet_queue.hpp"
#include "sim/timer.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace maxmin::net {

/// Services the stack needs from the surrounding network. Implemented by
/// net::Network; a test double suffices for unit tests.
///
/// The network numbers its flow destinations densely — slot i is the
/// i-th smallest destination id — and its flows by ascending id; the
/// stack indexes its per-destination and per-flow tables by these slots.
class NetContext {
 public:
  virtual ~NetContext() = default;
  virtual sim::Simulator& simulator() = 0;
  virtual const NetworkConfig& config() const = 0;
  virtual const topo::Topology& topology() const = 0;
  [[nodiscard]] virtual int numDestinations() const = 0;
  /// Slot of `dest`; -1 when no flow ends there.
  [[nodiscard]] virtual int destSlot(topo::NodeId dest) const = 0;
  [[nodiscard]] virtual topo::NodeId destination(int slot) const = 0;
  /// Next hop from `from` toward destination slot `slot`; kNoNode if none.
  [[nodiscard]] virtual topo::NodeId nextHop(topo::NodeId from,
                                             int slot) const = 0;
  [[nodiscard]] virtual int numFlows() const = 0;
  /// Slot of flow `id`: its rank among the network's flow ids.
  [[nodiscard]] virtual int flowSlot(FlowId id) const = 0;
  /// An end-to-end delivery reached its destination at time `at`.
  virtual void recordDelivery(const Packet& packet, TimePoint at) = 0;
};

struct SourceCounters {
  std::int64_t generatedAttempts = 0;  ///< timer fires
  std::int64_t admitted = 0;           ///< packets that entered the queue
  std::int64_t blockedBySourceQueue = 0;
};

class NodeStack final : public mac::FrameClient {
 public:
  NodeStack(NetContext& ctx, topo::NodeId self, Rng rng);

  NodeStack(const NodeStack&) = delete;
  NodeStack& operator=(const NodeStack&) = delete;

  void attachMac(mac::Dcf* mac) { mac_ = mac; }
  topo::NodeId self() const { return self_; }

  // --- flow sources --------------------------------------------------------
  /// Register a flow whose source is this node and start generating at
  /// min(desiredRate, rate limit).
  void addLocalFlow(const FlowSpec& spec);

  /// Set/replace the self-imposed rate limit (GMP's control knob), or
  /// remove it with nullopt. Takes effect immediately.
  void setRateLimit(FlowId flow, std::optional<double> pps);
  std::optional<double> rateLimit(FlowId flow) const;

  /// Update the normalized rate the source stamps on new packets.
  void setSourceMu(FlowId flow, double mu);

  const SourceCounters& sourceCounters(FlowId flow) const;
  /// Ids of flows sourced here, sorted (the backing store is hashed).
  std::vector<FlowId> localFlows() const;

  // --- measurement (paper §6.2) ---------------------------------------------
  /// Close the current measurement window: returns everything measured
  /// since the last close and restarts all accumulators.
  NodePeriodMeasurement closeMeasurementWindow();

  /// Inject an in-transit packet directly into the forwarding queue (the
  /// hybrid fast-forward backlog injection, DESIGN.md §16). Bypasses
  /// source admission — the packet is treated as already accepted
  /// upstream — and never overflows: seeding stops at capacity. The
  /// caller owns sequence-number consistency with the flow's source
  /// (seeded packets use negative sequence numbers so duplicate
  /// suppression at the sink stays monotone).
  void seedPacket(PacketPtr p);

  std::int64_t dropsTail() const { return dropsTail_; }
  std::int64_t duplicatesDropped() const { return duplicatesDropped_; }
  /// Service passes that skipped a queue because its next hop advertised
  /// a full buffer (congestion avoidance).
  std::int64_t backpressureStalls() const { return backpressureStalls_; }
  /// Most packets any one of this node's queues has held after an enqueue.
  std::size_t queueHighWater() const { return queueHighWater_; }

  // --- fault handling --------------------------------------------------------
  /// Crash (`false`) or recover (`true`) this node's network layer. A
  /// crash loses all volatile state: queued packets (counted in
  /// dropsAtCrash), cached neighbor buffer states, neighbor-health
  /// verdicts, and the source generators stop. Recovery restarts the
  /// sources with empty queues. The MAC keeps running — the fault plane
  /// makes its transmissions silent — so timing invariants hold.
  void setOperational(bool up);
  bool operational() const { return operational_; }

  /// True when dead-neighbor detection has currently written off `nh`.
  bool neighborDead(topo::NodeId nh) const;

  /// Packets dropped because their next hop was declared dead.
  std::int64_t dropsDeadNextHop() const { return dropsDeadNextHop_; }
  /// Packets lost from queues when this node crashed.
  std::int64_t dropsAtCrash() const { return dropsAtCrash_; }

  /// Route decoded broadcast control frames to a control-plane module
  /// (e.g. gmp::LinkStateDissemination). At most one handler.
  void setControlHandler(std::function<void(const phys::Frame&)> handler);

  // --- mac::FrameClient ------------------------------------------------------
  std::optional<mac::TxRequest> nextTxRequest() override;
  /// Any queue non-empty.
  bool hasBacklog() const override;
  void onTxSuccess(const mac::TxRequest& request) override;
  void onTxFailure(const mac::TxRequest& request) override;
  void onDataReceived(const phys::Frame& frame) override;
  std::vector<phys::BufferStateAd> currentBufferState() override;
  void onFrameDecoded(const phys::Frame& frame) override;
  void onControlReceived(const phys::Frame& frame) override;

 private:
  struct SourceState {
    FlowSpec spec;
    std::optional<double> limitPps;
    double mu = 0.0;
    SourceCounters counters;
    std::int64_t seq = 0;
    std::unique_ptr<sim::Timer> timer;
  };

  /// A queue and its slot: the destination slot (per-destination), the
  /// flow slot (per-flow), or 0 (the one shared FIFO).
  struct SlotQueue {
    int slot;
    PacketQueue q;
  };

  /// Where a destination's packets go next: the next hop and its rank in
  /// this node's CSR neighbour row (-1 with no route).
  struct Hop {
    topo::NodeId node = topo::kNoNode;
    int rank = -1;
  };

  int queueSlotFor(const Packet& p) const;
  PacketQueue& queueFor(int slot);
  /// Destination slot of the packets at the head of `e` (non-empty).
  int destSlotOf(const SlotQueue& e) const;
  const Hop& hopToward(int destSlot);
  /// Rank of `nb` in this node's neighbour row; -1 if not a neighbour.
  int neighborRank(topo::NodeId nb) const;

  /// Per-virtual-link measurement accumulator. Hashed flowMu for the
  /// per-packet update; closeMeasurementWindow() converts to the sorted
  /// VirtualLinkSample report form.
  struct LinkAccumulator {
    int packets = 0;
    std::unordered_map<FlowId, double, IdHash> flowMu;
  };
  static VirtualLinkSample toSample(const LinkAccumulator& acc);

  void generate(SourceState& s);
  void scheduleNextGeneration(SourceState& s);
  double effectiveRate(const SourceState& s) const;
  void enqueue(PacketPtr p);

  /// Dead-neighbor bookkeeping (active only when neighborDeadTtl > 0).
  void noteNeighborFailure(topo::NodeId nh);
  void noteNeighborAlive(topo::NodeId nh);
  /// Drop every front packet of `e` whose next hop is dead; returns the
  /// number dropped.
  std::int64_t drainDeadFront(SlotQueue& e);
  bool rankDead(int rank) const;

  /// True when congestion avoidance currently forbids sending to the
  /// neighbour of rank `nbRank` under buffer-state slot `adSlot`. Sets
  /// `expiry` to when the verdict lapses.
  bool heldByBackpressure(int nbRank, int adSlot, TimePoint& expiry) const;
  void armHoldRetry(TimePoint earliestExpiry);

  TimePoint now() const;

  NetContext& ctx_;
  sim::Simulator& sim_;  ///< ctx.simulator(), cached off the virtual call
  const topo::NodeId self_;
  Rng rng_;
  mac::Dcf* mac_ = nullptr;

  // Dense tables, indexed by the network's destination/flow slots and by
  // CSR neighbour rank: sized by degree × destinations at most, never by
  // the node count, and the neighbour tables are allocated on first use.
  /// This node's CSR neighbour row: a view into the network's topology,
  /// which outlives every stack it owns.
  const std::span<const topo::NodeId> neighbors_;
  std::vector<SlotQueue> queues_;  ///< creation order: the round-robin ring
  std::vector<int> queueIndex_;    ///< slot -> index in queues_, or -1
  std::size_t nextService_ = 0;
  std::vector<Hop> hops_;  ///< by destination slot, filled on first use

  std::unordered_map<FlowId, SourceState, IdHash> sources_;

  /// Piggybacked buffer state heard from neighbours, at [rank * adSlots_
  /// + ad slot]: when the last "full" ad was heard, or kNotFull. Ad slots
  /// are destination slots under per-destination queueing, else the one
  /// shared-buffer slot 0.
  static constexpr TimePoint kNotFull = TimePoint::max();
  const int adSlots_;
  std::vector<TimePoint> neighborBufferState_;

  /// Consecutive-failure tracking per next hop for dead-neighbor
  /// detection, by neighbour rank. `failingSince` is the start of the
  /// current unbroken failure run; `dead` latches once the run exceeds
  /// the TTL.
  struct NeighborHealth {
    TimePoint failingSince;
    bool failing = false;
    bool dead = false;
  };
  std::vector<NeighborHealth> neighborHealth_;
  int failingNeighbors_ = 0;  ///< entries with `failing` set

  bool operational_ = true;
  std::int64_t dropsDeadNextHop_ = 0;
  std::int64_t dropsAtCrash_ = 0;

  sim::Timer holdRetryTimer_;
  std::function<void(const phys::Frame&)> controlHandler_;

  // Measurement accumulators (reset per window). Hashed: these take a
  // per-forwarded-packet / per-received-packet update; the sorted report
  // form is built once per period in closeMeasurementWindow().
  TimePoint windowStart_;
  std::unordered_map<topo::NodeId, LinkAccumulator, IdHash> downSample_;
  std::unordered_map<std::pair<topo::NodeId, topo::NodeId>, LinkAccumulator,
                     IdPairHash>
      upSample_;
  std::unordered_map<FlowId, std::int64_t, IdHash> admittedInWindow_;

  std::int64_t dropsTail_ = 0;
  std::int64_t backpressureStalls_ = 0;
  std::size_t queueHighWater_ = 0;

  /// 802.11-style duplicate suppression: a lost ACK makes the sender
  /// retransmit a DATA frame the receiver already has. Per-flow delivery
  /// is in order (one path, FIFO queues), so a non-increasing sequence
  /// number identifies the duplicate.
  std::unordered_map<FlowId, std::int64_t, IdHash> lastSeqAccepted_;
  std::int64_t duplicatesDropped_ = 0;
};

}  // namespace maxmin::net
