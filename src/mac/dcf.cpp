#include "mac/dcf.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace maxmin::mac {

DcfCounters& DcfCounters::operator+=(const DcfCounters& o) {
  rtsSent += o.rtsSent;
  dataSent += o.dataSent;
  broadcastsSent += o.broadcastsSent;
  txSuccesses += o.txSuccesses;
  ctsTimeouts += o.ctsTimeouts;
  ackTimeouts += o.ackTimeouts;
  macDrops += o.macDrops;
  backoffDraws += o.backoffDraws;
  backoffCwSum += o.backoffCwSum;
  backoffFreezes += o.backoffFreezes;
  cwEscalations += o.cwEscalations;
  eifsDeferrals += o.eifsDeferrals;
  return *this;
}

Dcf::Dcf(sim::Simulator& sim, phys::Medium& medium, topo::NodeId self,
         FrameClient& client, MacParams params, Rng rng)
    : sim_{sim},
      medium_{medium},
      self_{self},
      client_{client},
      params_{params},
      rng_{rng},
      wakeTimer_{sim, sim::bind<&Dcf::refreshChannelState>(this)},
      accessTimer_{sim, sim::bind<&Dcf::accessGranted>(this)},
      cw_{params.cwMin},
      sifsDataTimer_{sim, sim::bind<&Dcf::transmitData>(this)},
      responseTimeout_{sim, sim::bind<&Dcf::onResponseTimeout>(this)},
      responderTimer_{sim, sim::bind<&Dcf::sendResponse>(this)} {
  medium_.attachRadio(self_, this);
}

void Dcf::notifyTrafficPending() {
  unpark();
  tryAccess();
}

void Dcf::enqueueBroadcast(std::shared_ptr<const phys::ControlMessage> message,
                           DataSize sizeBytes) {
  MAXMIN_CHECK(message != nullptr);
  MAXMIN_CHECK(sizeBytes.asBytes() > 0);
  unpark();
  broadcasts_.emplace_back(std::move(message), sizeBytes);
  tryAccess();
}

Duration Dcf::takeOccupancy(topo::NodeId nextHop) {
  const auto it = occupancy_.find(nextHop);
  if (it == occupancy_.end()) return Duration::zero();
  const Duration d = it->second;
  it->second = Duration::zero();
  return d;
}

void Dcf::accrueOccupancy(topo::NodeId nextHop, Duration airtime) {
  occupancy_[nextHop] += airtime;
}

void Dcf::occupyChannel(Duration busyFor) {
  MAXMIN_CHECK(busyFor > Duration::zero());
  navEnd_ = std::max(navEnd_, sim_.now() + busyFor);
  armWakeTimer();
  refreshChannelState();
}

// ---------------------------------------------------------------------------
// Channel state
// ---------------------------------------------------------------------------

bool Dcf::virtuallyBusy() const {
  return medium_.senseBusy(self_) || medium_.isTransmitting(self_) ||
         sim_.now() < navEnd_ || sim_.now() < deferUntil_;
}

void Dcf::refreshChannelState() {
  if (parked_) return;  // unpark() rebuilds the result
  const bool busy = virtuallyBusy();
  if (busy && idle_) {
    idle_ = false;
    freezeBackoff();
  } else if (!busy && !idle_) {
    idle_ = true;
    idleSince_ = sim_.now();
    tryAccess();
  }
}

void Dcf::armWakeTimer() {
  const TimePoint wake = std::max(navEnd_, deferUntil_);
  if (wake > sim_.now()) wakeTimer_.arm(wake - sim_.now());
}

void Dcf::freezeBackoff() {
  if (!accessTimer_.pending()) return;
  accessTimer_.cancel();
  ++counters_.backoffFreezes;
  // Credit whole slots elapsed since the countdown cleared DIFS.
  if (sim_.now() > countdownStart_) {
    const auto elapsed = static_cast<int>(
        (sim_.now() - countdownStart_).asMicros() /
        params_.slotTime.asMicros());
    backoffSlots_ -= std::min(elapsed, backoffSlots_);
  }
}

void Dcf::onChannelBusy() { refreshChannelState(); }
void Dcf::onChannelIdle() { refreshChannelState(); }

// ---------------------------------------------------------------------------
// Parking
// ---------------------------------------------------------------------------
//
// A radio with no work gains nothing from carrier-sense callbacks or from
// its NAV/EIFS wake: a busy edge runs freezeBackoff() with no access timer
// to freeze, and an idle edge sets idleSince_ and runs a tryAccess() that
// finds no work. Parking skips them and unpark() reconstructs their
// outcome, so every later decision is the one the listening radio would
// have made (DESIGN.md §12).

void Dcf::parkIfIdle() {
  if (accessTimer_.pending() || client_.hasBacklog()) return;
  parked_ = true;
  medium_.setListening(self_, false);
  wakeTimer_.hold();  // armWakeTimer() now only moves the reservation
}

void Dcf::unpark() {
  if (!parked_) return;
  parked_ = false;
  medium_.setListening(self_, true);
  // Queue the wake at the position it would hold, unless it has passed.
  wakeTimer_.release();
  // A listening radio is idle iff it is not virtually busy — except at a
  // NAV/EIFS expiry instant before its wake has run, where it is idle
  // only if an energy edge at this instant already said so.
  const TimePoint now = sim_.now();
  const TimePoint energyIdle = medium_.energyIdleSince(self_);
  idle_ = !virtuallyBusy() && (!wakeTimer_.pending() || energyIdle == now);
  // The last idle edge was the latest of the energy fall and the
  // reservation expiries (never earlier than the one seen before parking).
  if (idle_) {
    idleSince_ = std::max({idleSince_, energyIdle, navEnd_, deferUntil_});
  }
}

// ---------------------------------------------------------------------------
// Contention
// ---------------------------------------------------------------------------

void Dcf::drawBackoff() {
  backoffSlots_ = static_cast<int>(rng_.uniformInt(0, cw_));
  ++counters_.backoffDraws;
  counters_.backoffCwSum += static_cast<std::uint64_t>(cw_);
}

void Dcf::tryAccess() {
  if (phase_ != Phase::kNone || responsePending_) return;
  if (!current_ && broadcasts_.empty()) {
    current_ = client_.nextTxRequest();
    if (!current_) {
      parkIfIdle();
      return;
    }
    MAXMIN_CHECK(current_->nextHop != topo::kNoNode);
    MAXMIN_CHECK(current_->packet != nullptr);
  }
  if (!idle_) return;
  if (accessTimer_.pending()) return;

  const Duration sinceIdle = sim_.now() - idleSince_;
  if (!haveBackoff_) {
    if (sinceIdle >= params_.difs()) {
      // Medium idle longer than DIFS and no backoff owed: transmit now.
      transmitNext();
      return;
    }
    // Arrived while the channel was busy or within DIFS of it: back off.
    drawBackoff();
    haveBackoff_ = true;
  }
  countdownStart_ = idleSince_ + params_.difs();
  const Duration target =
      params_.difs() + params_.slotTime * backoffSlots_;
  if (sinceIdle >= target) {
    accessGranted();
  } else {
    accessTimer_.arm(target - sinceIdle);
  }
}

void Dcf::accessGranted() {
  MAXMIN_CHECK(idle_);
  MAXMIN_CHECK(phase_ == Phase::kNone);
  MAXMIN_CHECK(current_.has_value() || !broadcasts_.empty());
  haveBackoff_ = false;
  backoffSlots_ = 0;
  transmitNext();
}

void Dcf::transmitNext() {
  if (!broadcasts_.empty()) {
    transmitBroadcast();
  } else {
    transmitRts();
  }
}

void Dcf::transmitBroadcast() {
  phase_ = Phase::kSendingBroadcast;
  auto [message, size] = std::move(broadcasts_.front());
  broadcasts_.pop_front();
  phys::Frame f;
  f.kind = phys::FrameKind::kControl;
  f.transmitter = self_;
  f.addressee = topo::kNoNode;
  // Control frames go at the basic rate, like other management traffic.
  f.duration = params_.plcpOverhead + params_.basicRate.txTime(size);
  f.navAfterEnd = Duration::zero();
  f.control = std::move(message);
  f.bufferState = client_.currentBufferState();
  medium_.startTransmission(std::move(f));
  ++counters_.broadcastsSent;
  refreshChannelState();
}

// ---------------------------------------------------------------------------
// Sender-side exchange
// ---------------------------------------------------------------------------

void Dcf::transmitRts() {
  phase_ = Phase::kSendingRts;
  phys::Frame f;
  f.kind = phys::FrameKind::kRts;
  f.transmitter = self_;
  f.addressee = current_->nextHop;
  f.duration = params_.rtsDuration();
  f.navAfterEnd = params_.rtsNav(current_->payloadSize);
  f.bufferState = client_.currentBufferState();
  const Duration airtime = f.duration;
  medium_.startTransmission(std::move(f));
  ++counters_.rtsSent;
  accrueOccupancy(current_->nextHop, airtime);
  refreshChannelState();
}

void Dcf::transmitData() {
  phase_ = Phase::kSendingData;
  phys::Frame f;
  f.kind = phys::FrameKind::kData;
  f.transmitter = self_;
  f.addressee = current_->nextHop;
  f.duration = params_.dataDuration(current_->payloadSize);
  f.navAfterEnd = params_.dataNav();
  f.packet = current_->packet;
  f.bufferState = client_.currentBufferState();
  const Duration airtime = f.duration;
  medium_.startTransmission(std::move(f));
  ++counters_.dataSent;
  accrueOccupancy(current_->nextHop, airtime);
  refreshChannelState();
}

// The medium reports the end of every frame this radio sent: a CTS/ACK
// response, or a frame of our own exchange. responseOnAir_ tells them
// apart, since an ACK can be on the air while phase_ is kAwaitCts.

void Dcf::onTxEnd() {
  if (responseOnAir_) {
    responseOnAir_ = false;
    responsePending_ = false;
    refreshChannelState();
    tryAccess();
    return;
  }
  switch (phase_) {
    case Phase::kSendingRts:
      phase_ = Phase::kAwaitCts;
      responseTimeout_.arm(params_.ctsTimeout());
      break;
    case Phase::kSendingData:
      phase_ = Phase::kAwaitAck;
      responseTimeout_.arm(params_.ackTimeout());
      break;
    case Phase::kSendingBroadcast:
      // Fire and forget: no response, no retry (802.11 broadcast rules).
      phase_ = Phase::kNone;
      drawBackoff();
      haveBackoff_ = true;
      refreshChannelState();
      tryAccess();
      return;
    default:
      MAXMIN_CHECK_MSG(false, "own tx ended in unexpected phase");
  }
  refreshChannelState();
}

// responseTimeout_ dispatches on phase_, which is set just before it is
// armed and which only its own callback moves on while it is pending (a
// CTS or ACK that ends the wait cancels the timeout).

void Dcf::onResponseTimeout() {
  if (phase_ == Phase::kAwaitAck) {
    onAckTimeout();
  } else {
    MAXMIN_CHECK(phase_ == Phase::kAwaitCts);
    onCtsTimeout();
  }
}

void Dcf::onCtsTimeout() {
  ++counters_.ctsTimeouts;
  retryAfterTimeout(/*longRetry=*/false);
}

void Dcf::onAckTimeout() {
  ++counters_.ackTimeouts;
  retryAfterTimeout(/*longRetry=*/true);
}

void Dcf::retryAfterTimeout(bool longRetry) {
  phase_ = Phase::kNone;
  int& retries = longRetry ? longRetries_ : shortRetries_;
  const int limit =
      longRetry ? params_.longRetryLimit : params_.shortRetryLimit;
  if (++retries > limit) {
    ++counters_.macDrops;
    finishCurrent(/*success=*/false);
    return;
  }
  cw_ = std::min(2 * cw_ + 1, params_.cwMax);
  ++counters_.cwEscalations;
  drawBackoff();
  haveBackoff_ = true;
  refreshChannelState();
  tryAccess();
}

void Dcf::finishCurrent(bool success) {
  phase_ = Phase::kNone;
  const TxRequest request = *current_;
  current_.reset();
  cw_ = params_.cwMin;
  shortRetries_ = 0;
  longRetries_ = 0;
  drawBackoff();  // post-transmission backoff (802.11 §9.2.5.2)
  haveBackoff_ = true;
  if (success) {
    ++counters_.txSuccesses;
    client_.onTxSuccess(request);
  } else {
    client_.onTxFailure(request);
  }
  tryAccess();
}

// ---------------------------------------------------------------------------
// Reception
// ---------------------------------------------------------------------------

void Dcf::onFrameReceived(const phys::Frame& frame) {
  client_.onFrameDecoded(frame);
  if (frame.kind == phys::FrameKind::kControl) {
    client_.onControlReceived(frame);
    return;
  }
  if (frame.addressee == self_) {
    handleAddressedFrame(frame);
  } else {
    // Virtual carrier sense: honor the overheard reservation.
    navEnd_ = std::max(navEnd_, sim_.now() + frame.navAfterEnd);
    armWakeTimer();
    refreshChannelState();
  }
}

void Dcf::onFrameCorrupted(const phys::Frame&) {
  // Could not decode: defer EIFS so the (inaudible) ACK of the collided
  // exchange is protected. This is where hidden-terminal unfairness bites.
  ++counters_.eifsDeferrals;
  deferUntil_ = std::max(deferUntil_, sim_.now() + params_.eifs());
  armWakeTimer();
  refreshChannelState();
}

void Dcf::handleAddressedFrame(const phys::Frame& frame) {
  unpark();
  switch (frame.kind) {
    case phys::FrameKind::kRts: {
      if (sim_.now() < navEnd_) return;  // NAV forbids responding
      if (phase_ != Phase::kNone || responsePending_ ||
          medium_.isTransmitting(self_)) {
        return;  // busy with our own exchange; sender will retry
      }
      // Reserve the whole incoming exchange locally so our own contention
      // stays frozen until it completes.
      deferUntil_ = std::max(deferUntil_, sim_.now() + frame.navAfterEnd);
      armWakeTimer();
      refreshChannelState();
      responsePending_ = true;
      armResponder(phys::FrameKind::kCts, frame.transmitter,
                   frame.navAfterEnd - params_.sifs - params_.ctsDuration(),
                   params_.sifs);
      break;
    }
    case phys::FrameKind::kCts: {
      if (phase_ != Phase::kAwaitCts || frame.transmitter != current_->nextHop)
        return;
      responseTimeout_.cancel();
      accrueOccupancy(current_->nextHop, frame.duration);
      phase_ = Phase::kWaitSifsData;
      sifsDataTimer_.arm(params_.sifs);
      break;
    }
    case phys::FrameKind::kData: {
      client_.onDataReceived(frame);
      if (!responsePending_ && !medium_.isTransmitting(self_)) {
        responsePending_ = true;
        armResponder(phys::FrameKind::kAck, frame.transmitter,
                     Duration::zero(), params_.sifs);
      }
      break;
    }
    case phys::FrameKind::kAck: {
      if (phase_ != Phase::kAwaitAck || frame.transmitter != current_->nextHop)
        return;
      responseTimeout_.cancel();
      accrueOccupancy(current_->nextHop, frame.duration);
      finishCurrent(/*success=*/true);
      break;
    }
    case phys::FrameKind::kControl:
      break;  // broadcasts are dispatched before addressed handling
  }
}

void Dcf::sendResponse() {
  if (medium_.isTransmitting(self_)) {
    responsePending_ = false;  // pathological overlap; let the sender retry
    return;
  }
  phys::Frame f;
  f.kind = responseKind_;
  f.transmitter = self_;
  f.addressee = responseTo_;
  f.duration = responseKind_ == phys::FrameKind::kCts ? params_.ctsDuration()
                                                      : params_.ackDuration();
  f.navAfterEnd = responseNav_;
  f.bufferState = client_.currentBufferState();
  medium_.startTransmission(std::move(f));
  responseOnAir_ = true;
  refreshChannelState();
}

void Dcf::armResponder(phys::FrameKind kind, topo::NodeId to, Duration nav,
                       Duration delay) {
  responseKind_ = kind;
  responseTo_ = to;
  responseNav_ = nav;
  responderTimer_.arm(delay);
}

}  // namespace maxmin::mac
