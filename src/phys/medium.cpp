#include "phys/medium.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "util/check.hpp"

namespace maxmin::phys {

Medium::Medium(sim::Simulator& sim, const topo::Topology& topo)
    : sim_{sim}, topo_{topo} {
  const auto n = static_cast<std::size_t>(topo.numNodes());
  radios_.assign(n, nullptr);
  energy_.assign(n, 0);
  listening_.assign(n, 0);
  energyIdleSince_.assign(n, TimePoint{});
  transmitting_.assign(n, 0);
  disturbed_.assign(n, 0);

  // Range relations are read straight from the topology's CSR rows; the
  // only derived quantities are the largest tx out-degree (spill sizing)
  // and the largest cs-degree (edge scratch sizing).
  std::size_t maxCsDegree = 0;
  for (std::size_t a = 0; a < n; ++a) {
    const auto id = static_cast<topo::NodeId>(a);
    maxTxDegree_ = std::max(maxTxDegree_, topo.neighbors(id).size());
    maxCsDegree = std::max(maxCsDegree, topo.csNeighbors(id).size());
  }

  // Preallocate every per-frame structure to its lifetime bound: at most
  // one active transmission per node. Steady-state start/finish never
  // allocates.
  freeSlots_.reserve(n);
  edges_.assign(maxCsDegree, topo::kNoNode);
  finishScratch_.reserve(maxTxDegree_);
}

void Medium::attachRadio(topo::NodeId id, RadioListener* listener) {
  MAXMIN_CHECK(listener != nullptr);
  auto& slot = radios_.at(static_cast<std::size_t>(id));
  MAXMIN_CHECK_MSG(slot == nullptr, "radio " << id << " attached twice");
  slot = listener;
  listening_[static_cast<std::size_t>(id)] = 1;
}

// Only listening radios (attached, not parked) are called back. A
// callback may park or unpark its own radio, never start a transmission:
// a busy edge only freezes, and an idle edge opens a DIFS (> 0) wait.
void Medium::runEdgeCallbacks(std::size_t count, bool busy) {
  inEdgeCallbacks_ = true;
  for (std::size_t k = 0; k < count; ++k) {
    RadioListener* radio = radios_[static_cast<std::size_t>(edges_[k])];
    if (busy) {
      radio->onChannelBusy();
    } else {
      radio->onChannelIdle();
    }
  }
  inEdgeCallbacks_ = false;
}

std::uint32_t Medium::acquireSlot() {
  if (!freeSlots_.empty()) {
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    return slot;
  }
  MAXMIN_CHECK_MSG(active_.size() < radios_.size(),
                   "more concurrent transmissions than nodes");
  const auto slot = static_cast<std::uint32_t>(active_.size());
  active_.emplace_back(*this, slot);
  return slot;
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

void Medium::startTransmission(Frame frame) {
  const topo::NodeId sender = frame.transmitter;
  MAXMIN_CHECK(sender >= 0 && sender < topo_.numNodes());
  MAXMIN_CHECK_MSG(!inEdgeCallbacks_,
                   "node " << sender << " started inside a busy/idle callback");
  MAXMIN_CHECK_MSG(transmitting_[static_cast<std::size_t>(sender)] == 0,
                   "node " << sender << " already transmitting");
  const Duration duration = frame.duration;
  MAXMIN_CHECK(duration > Duration::zero());
  MAXMIN_CHECK(radios_[static_cast<std::size_t>(sender)] != nullptr);

  transmitting_[static_cast<std::size_t>(sender)] = 1;

  const std::uint32_t slot = acquireSlot();
  ActiveTx& tx = active_[slot];
  tx.frame = std::move(frame);
  tx.rxCount = 0;
  tx.spillBlock = kNoBlock;

  // A crashed sender's MAC still walks its transmit state machine (it
  // cannot know it is dead), but its radio emits nothing: no energy, no
  // receptions, no interference — so it stamps no epoch either. The
  // timing of the null transmission is preserved so the MAC's busy/idle
  // invariants survive recovery.
  tx.silent = faults_ != nullptr && !faults_->nodeUp(sender);
  if (tx.silent) {
    ++framesSuppressed_;
    // A transmission always runs to completion (a crash makes it silent,
    // never cancels it).
    tx.finish.arm(duration);
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

  // The energy pass. Stamping this start's epoch on every node that
  // senses it — and on the sender, which loses anything it was receiving
  // — is what corrupts the receptions already in flight there: their
  // frames carry older epochs (finishTransmission).
  const std::uint64_t epoch = ++epoch_;
  tx.epoch = epoch;
  disturbed_[static_cast<std::size_t>(sender)] = epoch;
  std::size_t due = 0;  // edges_ entries whose busy edge is due
  for (const topo::NodeId nb : topo_.csNeighbors(sender)) {
    const auto i = static_cast<std::size_t>(nb);
    edges_[due] = nb;
    due += static_cast<std::size_t>((energy_[i] == 0) & (listening_[i] != 0));
    ++energy_[i];
    disturbed_[i] = epoch;
  }
  runEdgeCallbacks(due, /*busy=*/true);

  if (observer_ != nullptr) observer_->onTransmissionStart(tx.frame, sim_.now());
  // Completion is unconditional (see above).
  tx.finish.arm(duration);
}

void Medium::finishTransmission(ActiveTx& tx) {
  const topo::NodeId sender = tx.frame.transmitter;
  MAXMIN_CHECK(sender != topo::kNoNode);
  transmitting_[static_cast<std::size_t>(sender)] = 0;

  // Move the frame and receptions out and recycle the record before
  // running callbacks, which may start new transmissions immediately
  // (SIFS=0 is not allowed, but zero-delay follow-ups in tests are) and
  // reuse this slot or its spill block. A reception whose receiver a
  // later start disturbed is settled here, before any callback can stamp
  // a newer epoch.
  const bool silent = tx.silent;
  const Frame frame = std::move(tx.frame);
  tx.frame.transmitter = topo::kNoNode;
  const PendingRx* rxs = receptions(tx);
  finishScratch_.resize(tx.rxCount);
  for (std::uint32_t k = 0; k < tx.rxCount; ++k) {
    const auto r = static_cast<std::size_t>(rxs[k].receiver);
    finishScratch_[k] = PendingRx{
        rxs[k].receiver, rxs[k].corrupted || disturbed_[r] > tx.epoch};
  }
  releaseRxStorage(tx);
  freeSlots_.push_back(tx.slot);

  // The sender's own step at its frame end runs last, after every
  // reception the frame caused, and also when nothing was radiated.
  RadioListener* const own = radios_[static_cast<std::size_t>(sender)];
  if (silent) {
    own->onTxEnd();
    return;
  }

  const TimePoint now = sim_.now();
  std::size_t due = 0;  // edges_ entries whose idle edge is due
  bool underflow = false;
  for (const topo::NodeId nb : topo_.csNeighbors(sender)) {
    const auto i = static_cast<std::size_t>(nb);
    const int energy = --energy_[i];
    underflow |= energy < 0;
    const bool fell = energy == 0;
    energyIdleSince_[i] = fell ? now : energyIdleSince_[i];
    edges_[due] = nb;
    due += static_cast<std::size_t>(fell & (listening_[i] != 0));
  }
  MAXMIN_CHECK_MSG(!underflow, "energy below zero near node " << sender);
  runEdgeCallbacks(due, /*busy=*/false);

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
    // A receiver that is sending now loses the frame, also when its own
    // start was silent (a crashed node's null transmission stamps no
    // epoch).
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
  own->onTxEnd();
}

}  // namespace maxmin::phys
