// Shared wireless medium with the protocol-interference collision model
// used by ns-2-era 802.11 studies (and by the paper):
//
//  * frames decode within txRange;
//  * energy is sensed within csRange (>= txRange);
//  * a reception is corrupted iff any other transmission whose sender is
//    within csRange of the receiver overlaps it in time, or the receiver
//    itself transmits during it (half-duplex). No capture effect.
//
// Propagation delay is zero: at 250 m it is under 1 us, below our clock
// resolution and irrelevant to the rate dynamics studied here.
//
// Hot-path layout (see DESIGN.md §12). All per-frame state is
// preallocated at construction so steady-state start/finish perform zero
// heap allocations:
//
//  * range relations are the topology's own CSR neighbor rows, consumed
//    in place (no per-Medium copy) — membership comes precomputed,
//    never from a distance computation;
//  * a reverse per-receiver reception index (rxAt_ + the rxPendingBits_
//    bitset) lets a new transmission corrupt exactly the nodes that both
//    sense it and hold in-flight receptions. Below the topology's dense
//    threshold that is a word-wise AND of the packed csAdjacency row
//    with the pending bitset; above it (no n²-bit matrices) the scan
//    walks the sender's sorted cs CSR row and tests one pending bit per
//    cs-neighbor — O(cs-degree), independent of N (DESIGN.md §14);
//  * pending receptions live inline in the transmission record (<= 8
//    receivers) or in a pooled spill arena block; records are recycled
//    through a free list shared by the silent and radiating paths.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "phys/frame.hpp"
#include "phys/impairment.hpp"
#include "phys/radio.hpp"
#include "sim/fault_plane.hpp"
#include "sim/simulator.hpp"
#include "topology/topology.hpp"

namespace maxmin::phys {

/// Passive observer of everything that happens on the medium; the hook
/// behind phys::FrameTrace. All callbacks are optional.
class MediumObserver {
 public:
  virtual ~MediumObserver() = default;
  virtual void onTransmissionStart(const Frame& frame, TimePoint at) {
    (void)frame;
    (void)at;
  }
  virtual void onDelivery(const Frame& frame, topo::NodeId receiver,
                          TimePoint at) {
    (void)frame;
    (void)receiver;
    (void)at;
  }
  virtual void onCorruption(const Frame& frame, topo::NodeId receiver,
                            TimePoint at) {
    (void)frame;
    (void)receiver;
    (void)at;
  }
};

class Medium {
 public:
  Medium(sim::Simulator& sim, const topo::Topology& topo);

  /// Attach a passive observer (nullptr detaches). Must outlive traffic.
  void setObserver(MediumObserver* observer) { observer_ = observer; }

  /// Attach the MAC for node `id`. Must be called for every node before
  /// the first transmission. The listener must outlive the medium.
  void attachRadio(topo::NodeId id, RadioListener* listener);

  /// Whether node `id`'s radio gets onChannelBusy()/onChannelIdle().
  /// On at attachRadio(); a parked MAC (nothing to send) turns it off and
  /// rebuilds its channel state from senseBusy() and energyIdleSince()
  /// when it turns it back on. Frame receptions are delivered either way.
  void setListening(topo::NodeId id, bool on) {
    listening_[static_cast<std::size_t>(id)] = on ? 1 : 0;
  }

  /// When node `id`'s sensed energy last fell to zero (time zero if it
  /// never has), kept whether or not the radio is listening.
  [[nodiscard]] TimePoint energyIdleSince(topo::NodeId id) const {
    return energyIdleSince_[static_cast<std::size_t>(id)];
  }

  /// Attach a fault plane (nullptr detaches). A down sender's frames
  /// radiate nothing (a "null transmission" that keeps the MAC's timing
  /// invariants); a down receiver — or a cut link — silently hears
  /// nothing. Energy sensing is still delivered to down nodes so their
  /// idle/busy bookkeeping stays consistent for recovery.
  void setFaultPlane(const sim::FaultPlane* plane) { faults_ = plane; }

  /// Attach a channel impairment model (nullptr detaches). An impaired
  /// frame reaches the receiver as a corrupted frame (CRC failure).
  void setImpairments(ChannelImpairments* impairments) {
    impairments_ = impairments;
  }

  /// Begin transmitting `frame` from `frame.transmitter` now, for
  /// `frame.duration`. The sender must not already be transmitting.
  /// Taken by value: callers move their frame in, and the medium keeps
  /// it until the transmission ends.
  void startTransmission(Frame frame);

  /// True if node `id` currently senses energy from another transmitter.
  [[nodiscard]] bool senseBusy(topo::NodeId id) const {
    return energy_.at(static_cast<std::size_t>(id)) > 0;
  }

  [[nodiscard]] bool isTransmitting(topo::NodeId id) const {
    return transmitting_.at(static_cast<std::size_t>(id)) != 0;
  }

  const topo::Topology& topology() const { return topo_; }

  // --- diagnostics -------------------------------------------------------
  [[nodiscard]] std::uint64_t framesDelivered() const { return framesDelivered_; }
  [[nodiscard]] std::uint64_t framesCorrupted() const { return framesCorrupted_; }
  /// Frames dropped by the channel impairment model.
  [[nodiscard]] std::uint64_t framesImpaired() const { return framesImpaired_; }
  /// Transmissions/receptions suppressed by the fault plane.
  [[nodiscard]] std::uint64_t framesSuppressed() const { return framesSuppressed_; }

  /// Pool high-water marks, exposed so tests can assert the steady state
  /// recycles rather than allocates.
  [[nodiscard]] std::size_t activeSlotHighWater() const { return active_.size(); }
  [[nodiscard]] std::size_t spillBlockHighWater() const {
    return maxTxDegree_ == 0 ? 0 : spillArena_.size() / maxTxDegree_;
  }

 private:
  struct PendingRx {
    topo::NodeId receiver;
    bool corrupted;
  };
  /// Reverse-index entry: active_[slot]'s reception #index targets the
  /// node whose rxAt_ list holds this entry.
  struct RxRef {
    std::uint32_t slot;
    std::uint32_t index;
  };

  static constexpr std::uint32_t kInlineRx = 8;
  static constexpr std::uint32_t kNoBlock = UINT32_MAX;

  struct ActiveTx {
    Frame frame;
    TimePoint end;
    bool silent = false;  ///< sender was down: nothing radiated
    std::uint32_t rxCount = 0;
    std::uint32_t spillBlock = kNoBlock;  ///< arena block when degree > kInlineRx
    std::array<PendingRx, kInlineRx> inlineRx;
  };

  void finishTransmission(std::size_t slot);
  void raiseEnergy(topo::NodeId at);
  void lowerEnergy(topo::NodeId at);

  /// Corrupt every in-flight reception at a node that senses `sender`
  /// (dense: packed cs-row AND pending bitset; sparse: per-cs-neighbor
  /// bit probe).
  void corruptReceptionsSensing(topo::NodeId sender);

  /// Pop a recycled transmission record (or extend within the reserved
  /// capacity). One helper for the silent and radiating paths.
  std::uint32_t acquireSlot();

  /// Reception storage for `tx`: inline for <= kInlineRx receivers, a
  /// pooled spill-arena block otherwise. `degree` is the sender's
  /// tx-range out-degree (known before filling).
  PendingRx* acquireRxStorage(ActiveTx& tx, std::uint32_t degree);
  [[nodiscard]] PendingRx* receptions(ActiveTx& tx) {
    return tx.spillBlock == kNoBlock
               ? tx.inlineRx.data()
               : spillArena_.data() +
                     static_cast<std::size_t>(tx.spillBlock) * maxTxDegree_;
  }
  void releaseRxStorage(ActiveTx& tx);

  /// Register / drop the reverse-index entries for a transmission's
  /// pending receptions, maintaining the rxPendingBits_ bitset.
  void indexReceptions(std::uint32_t slot);
  void unindexReception(topo::NodeId receiver, std::uint32_t slot);

  sim::Simulator& sim_;
  const topo::Topology& topo_;
  std::vector<RadioListener*> radios_;
  std::vector<int> energy_;               // sensed transmitter count per node
  std::vector<std::uint8_t> listening_;   // radio takes busy/idle callbacks
  std::vector<TimePoint> energyIdleSince_;
  std::vector<std::uint8_t> transmitting_;

  // Transmission records: indexed by slot, recycled via freeSlots_.
  // Reserved to numNodes at construction (<= one active tx per node), so
  // neither ever reallocates.
  std::vector<ActiveTx> active_;
  std::vector<std::uint32_t> freeSlots_;

  // Spill arena for receptions of high-degree senders: fixed-size blocks
  // of maxTxDegree_ PendingRx, recycled via freeBlocks_. Grows only while
  // the concurrent spill population sets a new high-water mark.
  std::vector<PendingRx> spillArena_;
  std::vector<std::uint32_t> freeBlocks_;
  std::size_t maxTxDegree_ = 0;

  // Reverse reception index: per receiver, the in-flight receptions
  // targeting it (capacity = in-degree, reserved at construction); plus
  // one bit per node saying "this node holds pending receptions", so the
  // corruption scan is csRow(sender) AND rxPendingBits_ (dense) or a
  // per-cs-neighbor bit probe (sparse). The range relations themselves
  // are read straight from topo_'s CSR rows — the Medium holds no copy.
  std::vector<std::vector<RxRef>> rxAt_;
  std::vector<std::uint64_t> rxPendingBits_;

  // Scratch for finishTransmission: receptions are copied out before the
  // slot is recycled because delivery callbacks may start transmissions
  // that reuse it. Reserved to maxTxDegree_; finish never nests (it only
  // runs from the event loop), so one buffer suffices.
  std::vector<PendingRx> finishScratch_;

  std::uint64_t framesDelivered_ = 0;
  std::uint64_t framesCorrupted_ = 0;
  std::uint64_t framesImpaired_ = 0;
  std::uint64_t framesSuppressed_ = 0;
  MediumObserver* observer_ = nullptr;
  const sim::FaultPlane* faults_ = nullptr;
  ChannelImpairments* impairments_ = nullptr;
};

}  // namespace maxmin::phys
