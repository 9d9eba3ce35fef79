// IEEE 802.11 DCF with RTS/CTS, per node.
//
// Implements the distributed coordination function as modelled by
// ns-2-era simulators and assumed by the paper:
//   * physical carrier sense (medium energy) + virtual carrier sense (NAV
//     from overheard RTS/CTS/DATA duration fields);
//   * DIFS deferral and slotted binary-exponential backoff with freezing;
//   * RTS -> CTS -> DATA -> ACK four-way exchange, SIFS-spaced responses;
//   * EIFS deferral after corrupted receptions (the mechanism behind the
//     hidden-terminal unfairness the paper's Table 3 exhibits);
//   * short (RTS) and long (DATA) retry limits with CW doubling.
//
// The backoff scheme of 802.11 is deliberately NOT modified: GMP's whole
// point (paper §1) is to sit above stock DCF.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "mac/frame_client.hpp"
#include "mac/params.hpp"
#include "phys/medium.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace maxmin::mac {

struct DcfCounters {
  std::uint64_t rtsSent = 0;
  std::uint64_t dataSent = 0;
  std::uint64_t broadcastsSent = 0;
  std::uint64_t txSuccesses = 0;
  std::uint64_t ctsTimeouts = 0;
  std::uint64_t ackTimeouts = 0;
  std::uint64_t macDrops = 0;  ///< retry limit exceeded
  std::uint64_t backoffDraws = 0;
  std::uint64_t backoffCwSum = 0;  ///< CW at each draw; / backoffDraws = mean
  std::uint64_t backoffFreezes = 0;  ///< countdowns paused by a busy medium
  std::uint64_t cwEscalations = 0;   ///< backoff stages entered on timeout
  std::uint64_t eifsDeferrals = 0;   ///< EIFS after an undecodable frame

  DcfCounters& operator+=(const DcfCounters& o);
  bool operator==(const DcfCounters&) const = default;
};

class Dcf final : public phys::RadioListener {
 public:
  Dcf(sim::Simulator& sim, phys::Medium& medium, topo::NodeId self,
      FrameClient& client, MacParams params, Rng rng);

  Dcf(const Dcf&) = delete;
  Dcf& operator=(const Dcf&) = delete;

  /// Upper layer signals that nextTxRequest() may now return work.
  void notifyTrafficPending();

  /// Queue a broadcast control frame (sent once after normal DIFS/backoff
  /// contention; no RTS/CTS, no ACK, no retry — 802.11 broadcast rules).
  /// Broadcasts take priority over pending unicast work.
  void enqueueBroadcast(std::shared_ptr<const phys::ControlMessage> message,
                        DataSize sizeBytes);

  [[nodiscard]] topo::NodeId self() const { return self_; }
  const MacParams& params() const { return params_; }
  const DcfCounters& counters() const { return counters_; }

  /// Channel airtime attributed to exchanges this node initiated toward
  /// `nextHop` since the last call; resets the accumulator. This is the
  /// per-wireless-link channel occupancy source for GMP (paper §6.2).
  Duration takeOccupancy(topo::NodeId nextHop);

  /// Reserve the channel for `busyFor` from now, exactly as if a frame
  /// carrying that NAV had been overheard: transmissions defer and
  /// backoff freezes until the reservation expires. The wake is armed as
  /// for any overheard NAV, so a parked radio stays parked. The hybrid
  /// engine radiates fluid background load through this (DESIGN.md §16);
  /// such phantom reservations never count toward takeOccupancy().
  void occupyChannel(Duration busyFor);

  /// True while this node's physical or virtual carrier sense is busy.
  /// The hybrid background trains consult this so phantom reservations
  /// serialize after real exchanges instead of overlapping them.
  [[nodiscard]] bool channelBusy() const { return virtuallyBusy(); }
  /// When the current NAV/EIFS reservation clears from this node's view;
  /// physical medium energy may keep the channel busy past this.
  [[nodiscard]] TimePoint reservedUntil() const {
    return std::max(navEnd_, deferUntil_);
  }

  // phys::RadioListener
  void onChannelBusy() override;
  void onChannelIdle() override;
  void onFrameReceived(const phys::Frame& frame) override;
  void onFrameCorrupted(const phys::Frame& frame) override;
  void onTxEnd() override;

 private:
  enum class Phase {
    kNone,         // no exchange in progress (may be contending)
    kSendingRts,
    kAwaitCts,
    kWaitSifsData,  // CTS received, DATA scheduled after SIFS
    kSendingData,
    kAwaitAck,
    kSendingBroadcast,
  };

  // --- channel state -----------------------------------------------------
  [[nodiscard]] bool virtuallyBusy() const;
  void refreshChannelState();   ///< maintain idleSince_ and freeze/resume
  void armWakeTimer();          ///< refreshChannelState() at NAV/EIFS expiry
  void freezeBackoff();

  // --- parking (DESIGN.md §12) -------------------------------------------
  /// With nothing to send, stop listening and hold the wake timer.
  void parkIfIdle();
  /// Resume listening and rebuild what the skipped callbacks would have
  /// left in idle_/idleSince_ and the wake timer. Called first by every
  /// entry point that can give the radio work.
  void unpark();

  // --- contention --------------------------------------------------------
  void tryAccess();
  void accessGranted();
  void drawBackoff();

  // --- sender-side exchange ----------------------------------------------
  void transmitNext();  ///< broadcast (priority) or RTS
  void transmitRts();
  void transmitData();  ///< sifsDataTimer_: the SIFS after a CTS is over
  void transmitBroadcast();
  void onResponseTimeout();
  void onCtsTimeout();
  void onAckTimeout();
  void retryAfterTimeout(bool longRetry);
  void finishCurrent(bool success);

  // --- responder side ------------------------------------------------------
  void handleAddressedFrame(const phys::Frame& frame);
  /// Send a CTS or ACK after `delay` (responderTimer_ -> sendResponse).
  void armResponder(phys::FrameKind kind, topo::NodeId to, Duration nav,
                    Duration delay);
  void sendResponse();

  void accrueOccupancy(topo::NodeId nextHop, Duration airtime);

  sim::Simulator& sim_;
  phys::Medium& medium_;
  const topo::NodeId self_;
  FrameClient& client_;
  const MacParams params_;
  Rng rng_;

  // Channel / contention state.
  bool parked_ = false;  ///< not listening; channel state rebuilt on unpark
  bool idle_ = true;
  TimePoint idleSince_;
  TimePoint navEnd_;
  TimePoint deferUntil_;  // EIFS and local reservations
  sim::Timer wakeTimer_;

  bool haveBackoff_ = false;
  int backoffSlots_ = 0;
  TimePoint countdownStart_;  // idleSince_ + DIFS at arming time
  sim::Timer accessTimer_;
  int cw_;

  // Current exchange.
  Phase phase_ = Phase::kNone;
  std::optional<TxRequest> current_;
  std::deque<std::pair<std::shared_ptr<const phys::ControlMessage>, DataSize>>
      broadcasts_;
  int shortRetries_ = 0;
  int longRetries_ = 0;
  sim::Timer sifsDataTimer_;
  sim::Timer responseTimeout_;

  // Responder state: a CTS/ACK is scheduled or on the air.
  bool responsePending_ = false;
  bool responseOnAir_ = false;  ///< the frame on the air is that CTS/ACK
  sim::Timer responderTimer_;
  phys::FrameKind responseKind_ = phys::FrameKind::kCts;
  topo::NodeId responseTo_ = topo::kNoNode;
  Duration responseNav_ = Duration::zero();

  DcfCounters counters_;
  std::unordered_map<topo::NodeId, Duration> occupancy_;
};

}  // namespace maxmin::mac
