// A bounded packet queue with full-time accounting.
//
// "Full" is the paper's buffer-state bit: no free slot. The queue tracks
// the fraction of time it spends full (Omega, §6.2 Measurement) via a
// BusyTimeAccumulator maintained on every mutation.
//
// Overflow policy is the caller's concern (it differs per protocol);
// pushFront/pushBack never refuse — the node stack checks full() first
// and applies its protocol's drop/hold rule.
#pragma once

#include <deque>

#include "net/packet.hpp"
#include "util/stats.hpp"

namespace maxmin::net {

class PacketQueue {
 public:
  PacketQueue(int capacity, TimePoint now);

  [[nodiscard]] int capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return packets_.size(); }
  [[nodiscard]] bool empty() const { return packets_.empty(); }

  /// No free slot. (Size can exceed capacity transiently when a packet was
  /// in flight while the last slot filled; it still reads as full.)
  [[nodiscard]] bool full() const { return static_cast<int>(size()) >= capacity_; }

  const PacketPtr& front() const { return packets_.front(); }

  void pushBack(PacketPtr p, TimePoint now);
  /// Reinsert at the head (MAC retry-failure re-offer).
  void pushFront(PacketPtr p, TimePoint now);
  PacketPtr popFront(TimePoint now);
  /// Replace the tail packet (802.11 baseline "overwrite at tail").
  void overwriteTail(PacketPtr p);

  /// Fraction of [windowStart, now] this queue was full.
  [[nodiscard]] double fullFraction(TimePoint windowStart, TimePoint now) const {
    return fullTime_.fraction(windowStart, now);
  }
  void beginWindow(TimePoint now) { fullTime_.beginWindow(now); }

 private:
  void noteState(TimePoint now);

  int capacity_;
  std::deque<PacketPtr> packets_;
  BusyTimeAccumulator fullTime_;
};

}  // namespace maxmin::net
