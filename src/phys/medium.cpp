#include "phys/medium.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "util/check.hpp"

namespace maxmin::phys {

const char* frameKindName(FrameKind kind) {
  switch (kind) {
    case FrameKind::kRts: return "RTS";
    case FrameKind::kCts: return "CTS";
    case FrameKind::kData: return "DATA";
    case FrameKind::kAck: return "ACK";
    case FrameKind::kControl: return "CTRL";
  }
  return "?";
}

Medium::Medium(sim::Simulator& sim, const topo::Topology& topo)
    : sim_{sim}, topo_{topo} {
  const auto n = static_cast<std::size_t>(topo.numNodes());
  radios_.assign(n, nullptr);
  energy_.assign(n, 0);
  listening_.assign(n, 0);
  energyIdleSince_.assign(n, TimePoint{});
  transmitting_.assign(n, 0);

  // Range relations are read straight from the topology's CSR rows; the
  // only derived quantity is the largest tx out-degree (spill sizing).
  for (std::size_t a = 0; a < n; ++a) {
    maxTxDegree_ = std::max(
        maxTxDegree_, topo.neighbors(static_cast<topo::NodeId>(a)).size());
  }

  // Preallocate every per-frame structure to its lifetime bound: at most
  // one active transmission per node, at most in-degree concurrent
  // receptions per receiver. Steady-state start/finish never allocates.
  active_.reserve(n);
  freeSlots_.reserve(n);
  rxAt_.resize(n);
  for (std::size_t a = 0; a < n; ++a) {
    rxAt_[a].reserve(topo.neighbors(static_cast<topo::NodeId>(a)).size());
  }
  rxPendingBits_.assign((n + 63) / 64, 0);
  finishScratch_.reserve(maxTxDegree_);
}

void Medium::attachRadio(topo::NodeId id, RadioListener* listener) {
  MAXMIN_CHECK(listener != nullptr);
  auto& slot = radios_.at(static_cast<std::size_t>(id));
  MAXMIN_CHECK_MSG(slot == nullptr, "radio " << id << " attached twice");
  slot = listener;
  listening_[static_cast<std::size_t>(id)] = 1;
}

// Only listening radios (attached, not parked) are called back.
void Medium::raiseEnergy(topo::NodeId at) {
  const auto i = static_cast<std::size_t>(at);
  if (++energy_[i] == 1 && listening_[i] != 0) radios_[i]->onChannelBusy();
}

void Medium::lowerEnergy(topo::NodeId at) {
  const auto i = static_cast<std::size_t>(at);
  MAXMIN_CHECK(energy_[i] > 0);
  if (--energy_[i] == 0) {
    energyIdleSince_[i] = sim_.now();
    if (listening_[i] != 0) radios_[i]->onChannelIdle();
  }
}

std::uint32_t Medium::acquireSlot() {
  if (!freeSlots_.empty()) {
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    return slot;
  }
  MAXMIN_CHECK_MSG(active_.size() < active_.capacity(),
                   "more concurrent transmissions than nodes");
  active_.emplace_back();
  return static_cast<std::uint32_t>(active_.size() - 1);
}

Medium::PendingRx* Medium::acquireRxStorage(ActiveTx& tx,
                                            std::uint32_t degree) {
  if (degree <= kInlineRx) {
    tx.spillBlock = kNoBlock;
    return tx.inlineRx.data();
  }
  if (freeBlocks_.empty()) {
    tx.spillBlock = static_cast<std::uint32_t>(spillArena_.size() / maxTxDegree_);
    spillArena_.resize(spillArena_.size() + maxTxDegree_);
  } else {
    tx.spillBlock = freeBlocks_.back();
    freeBlocks_.pop_back();
  }
  return receptions(tx);
}

void Medium::releaseRxStorage(ActiveTx& tx) {
  if (tx.spillBlock != kNoBlock) {
    freeBlocks_.push_back(tx.spillBlock);
    tx.spillBlock = kNoBlock;
  }
  tx.rxCount = 0;
}

void Medium::indexReceptions(std::uint32_t slot) {
  ActiveTx& tx = active_[slot];
  const PendingRx* rxs = receptions(tx);
  for (std::uint32_t i = 0; i < tx.rxCount; ++i) {
    const auto r = static_cast<std::size_t>(rxs[i].receiver);
    if (rxAt_[r].empty()) {
      rxPendingBits_[r / 64] |= std::uint64_t{1} << (r % 64);
    }
    rxAt_[r].push_back(RxRef{slot, i});
  }
}

void Medium::unindexReception(topo::NodeId receiver, std::uint32_t slot) {
  auto& refs = rxAt_[static_cast<std::size_t>(receiver)];
  for (auto& ref : refs) {
    if (ref.slot == slot) {
      ref = refs.back();
      refs.pop_back();
      break;
    }
  }
  if (refs.empty()) {
    const auto r = static_cast<std::size_t>(receiver);
    rxPendingBits_[r / 64] &= ~(std::uint64_t{1} << (r % 64));
  }
}

void Medium::startTransmission(Frame frame) {
  const topo::NodeId sender = frame.transmitter;
  MAXMIN_CHECK(sender >= 0 && sender < topo_.numNodes());
  MAXMIN_CHECK_MSG(transmitting_[static_cast<std::size_t>(sender)] == 0,
                   "node " << sender << " already transmitting");
  const Duration duration = frame.duration;
  MAXMIN_CHECK(duration > Duration::zero());
  MAXMIN_CHECK(radios_[static_cast<std::size_t>(sender)] != nullptr);

  transmitting_[static_cast<std::size_t>(sender)] = 1;

  const std::uint32_t slot = acquireSlot();
  ActiveTx& tx = active_[slot];
  tx.frame = std::move(frame);
  tx.end = sim_.now() + duration;
  tx.rxCount = 0;
  tx.spillBlock = kNoBlock;

  // A crashed sender's MAC still walks its transmit state machine (it
  // cannot know it is dead), but its radio emits nothing: no energy, no
  // receptions, no interference. The timing of the null transmission is
  // preserved so the MAC's busy/idle invariants survive recovery.
  tx.silent = faults_ != nullptr && !faults_->nodeUp(sender);
  if (tx.silent) {
    ++framesSuppressed_;
    // Fire-and-forget: a transmission always runs to completion (a crash
    // makes it silent, never cancels it).
    sim_.post(duration, [this, slot] { finishTransmission(slot); });
    return;
  }

  // Pending receptions: every node in decode range, corrupted on arrival
  // if the receiver already senses other energy or is itself transmitting.
  const std::span<const topo::NodeId> txNb = topo_.neighbors(sender);
  PendingRx* rxs =
      acquireRxStorage(tx, static_cast<std::uint32_t>(txNb.size()));
  std::uint32_t count = 0;
  for (const topo::NodeId r : txNb) {
    const bool corrupted = transmitting_[static_cast<std::size_t>(r)] != 0 ||
                           energy_[static_cast<std::size_t>(r)] > 0;
    rxs[count++] = PendingRx{r, corrupted};
  }
  tx.rxCount = count;

  corruptReceptionsSensing(sender);

  // A node beginning to transmit loses anything it was receiving.
  for (const RxRef& ref : rxAt_[static_cast<std::size_t>(sender)]) {
    receptions(active_[ref.slot])[ref.index].corrupted = true;
  }

  for (const topo::NodeId nb : topo_.csNeighbors(sender)) raiseEnergy(nb);

  indexReceptions(slot);

  if (observer_ != nullptr) observer_->onTransmissionStart(tx.frame, sim_.now());
  // Fire-and-forget: completion is unconditional (see above).
  sim_.post(duration, [this, slot] { finishTransmission(slot); });
}

void Medium::corruptReceptionsSensing(topo::NodeId sender) {
  // This transmission corrupts any in-flight reception at a node that
  // senses it — never a scan of every active transmission's reception
  // list. Dense topologies intersect the sender's packed carrier-sense
  // row with the pending-reception bitset (word-wise AND); sparse ones
  // (no n²-bit matrices) probe one pending bit per cs CSR neighbor,
  // O(cs-degree) regardless of N.
  if (topo_.hasDenseAdjacency()) {
    const std::uint64_t* csRow = topo_.csAdjacency().row(sender);
    for (std::size_t w = 0; w < rxPendingBits_.size(); ++w) {
      std::uint64_t hits = csRow[w] & rxPendingBits_[w];
      while (hits != 0) {
        const auto r = static_cast<std::size_t>(w * 64) +
                       static_cast<std::size_t>(std::countr_zero(hits));
        hits &= hits - 1;
        for (const RxRef& ref : rxAt_[r]) {
          receptions(active_[ref.slot])[ref.index].corrupted = true;
        }
      }
    }
  } else {
    for (const topo::NodeId nb : topo_.csNeighbors(sender)) {
      const auto r = static_cast<std::size_t>(nb);
      if ((rxPendingBits_[r / 64] & (std::uint64_t{1} << (r % 64))) == 0) {
        continue;
      }
      for (const RxRef& ref : rxAt_[r]) {
        receptions(active_[ref.slot])[ref.index].corrupted = true;
      }
    }
  }
}

void Medium::finishTransmission(std::size_t slot) {
  ActiveTx& tx = active_[slot];
  const topo::NodeId sender = tx.frame.transmitter;
  MAXMIN_CHECK(sender != topo::kNoNode);
  transmitting_[static_cast<std::size_t>(sender)] = 0;

  // Move the frame and receptions out and recycle the record before
  // running callbacks, which may start new transmissions immediately
  // (SIFS=0 is not allowed, but zero-delay follow-ups in tests are) and
  // reuse this slot or its spill block.
  const bool silent = tx.silent;
  const Frame frame = std::move(tx.frame);
  tx.frame.transmitter = topo::kNoNode;
  const PendingRx* rxs = receptions(tx);
  finishScratch_.assign(rxs, rxs + tx.rxCount);
  for (const PendingRx& rx : finishScratch_) {
    unindexReception(rx.receiver, static_cast<std::uint32_t>(slot));
  }
  releaseRxStorage(tx);
  freeSlots_.push_back(static_cast<std::uint32_t>(slot));

  if (silent) return;  // nothing was radiated

  for (const topo::NodeId nb : topo_.csNeighbors(sender)) lowerEnergy(nb);

  for (const PendingRx& rx : finishScratch_) {
    auto* radio = radios_[static_cast<std::size_t>(rx.receiver)];
    if (radio == nullptr) continue;
    // A crashed receiver (or a cut link) hears nothing at all — no
    // decode, no CRC failure, no EIFS. The receiver's node state was
    // checked at delivery time, so a crash mid-flight loses the frame.
    if (faults_ != nullptr && (!faults_->nodeUp(rx.receiver) ||
                               !faults_->linkUp(sender, rx.receiver))) {
      ++framesSuppressed_;
      continue;
    }
    // Receptions that end while the receiver transmits are lost even if
    // the overlap began after the corruption scan (same-instant starts).
    bool corrupt =
        rx.corrupted || transmitting_[static_cast<std::size_t>(rx.receiver)] != 0;
    // Channel impairment: a frame that survived interference can still
    // fail its CRC. Decided per (link, frame) so loss is bursty per link.
    if (!corrupt && impairments_ != nullptr &&
        impairments_->shouldDrop(sender, rx.receiver, frame.kind)) {
      ++framesImpaired_;
      corrupt = true;
    }
    if (corrupt) {
      ++framesCorrupted_;
      if (observer_ != nullptr) {
        observer_->onCorruption(frame, rx.receiver, sim_.now());
      }
      radio->onFrameCorrupted(frame);
    } else {
      ++framesDelivered_;
      if (observer_ != nullptr) {
        observer_->onDelivery(frame, rx.receiver, sim_.now());
      }
      radio->onFrameReceived(frame);
    }
  }
}

}  // namespace maxmin::phys
