// Deterministic phantom occupancy sources: the packet world's view of
// fluid background traffic (DESIGN.md §16).
//
// Each background *sender* node radiates periodic channel reservations —
// one per phantom packet, sized to the full nominal per-packet channel
// time (DIFS + mean backoff + RTS/CTS/DATA/ACK exchange) — into its own
// MAC and every MAC within carrier-sense range. Before emitting, the
// sender consults its own MAC's carrier sense exactly like a real DCF
// station: if the channel is busy (a foreground exchange, or another
// phantom sender's reservation — each burst charges the emitter too),
// the burst defers and re-contends after DIFS plus a deterministic
// backoff. This serializes phantom senders within carrier-sense range
// of each other and yields correct aggregate airtime, while keeping
// busy windows *correlated* across the sender's whole reach (one fire
// charges every reached MAC at the same instant) — the property that
// lets a foreground receiver's NAV clear exactly when its sender's
// does, as in a real channel. Deferred bursts catch up against a
// due-time schedule with bounded debt, so load is delayed, not lost.
//
// Foreground DCF sees the channel busy exactly as if a neighbor held it
// for a real exchange: transmissions defer, backoff freezes, and the
// residual airtime is what the foreground can win. No frames enter the
// Medium, so there is no collision coupling with the phantom traffic
// (the documented re-linearization approximation), and phantom
// reservations never count toward GMP's measured link occupancy.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "net/network.hpp"
#include "sim/timer.hpp"
#include "topology/topology.hpp"

namespace maxmin::hybrid {

class BackgroundLoad {
 public:
  /// `perPacket` is the channel time one phantom packet reserves;
  /// `batch` phantom packets are folded into each emitted reservation
  /// (longer bursts, proportionally longer gaps — same airtime).
  BackgroundLoad(net::Network& net, Duration perPacket, int batch = 1);

  BackgroundLoad(const BackgroundLoad&) = delete;
  BackgroundLoad& operator=(const BackgroundLoad&) = delete;

  /// Register a sender node before start(); idempotent.
  void addSender(topo::NodeId node);

  /// Aggregate background packet rate originating at `node` (sum over
  /// the background-flow hops whose transmitter is `node`). Takes effect
  /// at the sender's next burst boundary.
  void setSenderRate(topo::NodeId node, double pps);

  void start();
  void stop();

  [[nodiscard]] std::int64_t burstsEmitted() const { return bursts_; }

 private:
  struct Source {
    Source(BackgroundLoad& load, topo::NodeId n)
        : owner{&load},
          node{n},
          timer{load.net_.simulator(), sim::bind<&Source::fire>(this)} {}
    void fire() { owner->fire(*this); }

    BackgroundLoad* owner;
    topo::NodeId node;
    double pps = 0.0;
    /// This sender's MAC, then every MAC in its carrier-sense range: the
    /// MACs that defer while the phantom packet is on the air.
    std::vector<mac::Dcf*> reach;
    TimePoint due;                ///< next scheduled emission
    std::uint32_t deferrals = 0;  ///< drives the deterministic backoff
    /// Persistent contention countdown, mirroring DCF freezing: the
    /// remainder survives lost contentions (aging priority) instead of
    /// being redrawn, and -1 means no countdown is pending.
    int backoffSlots = -1;
    TimePoint countdownStart;  ///< when the armed countdown cleared DIFS
    sim::Timer timer;  ///< the next emission (or contention retry)
  };

  [[nodiscard]] Duration interval(const Source& s) const;
  void fire(Source& s);

  net::Network& net_;
  const Duration perPacket_;
  const int batch_;
  /// Ordered by registration. A deque: timers must not move.
  std::deque<Source> sources_;
  bool running_ = false;
  std::int64_t bursts_ = 0;
};

}  // namespace maxmin::hybrid
