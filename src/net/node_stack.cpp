#include "net/node_stack.hpp"

#include "obs/registry.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace maxmin::net {

const char* queueDisciplineName(QueueDiscipline d) {
  switch (d) {
    case QueueDiscipline::kPerDestination: return "per-destination";
    case QueueDiscipline::kPerFlow: return "per-flow";
    case QueueDiscipline::kSharedFifo: return "shared-fifo";
  }
  return "?";
}

void validateFlows(const std::vector<FlowSpec>& flows, int numNodes) {
  std::vector<FlowId> ids;
  for (const FlowSpec& f : flows) {
    MAXMIN_CHECK_MSG(f.id >= 0, "flow id must be non-negative");
    MAXMIN_CHECK_MSG(f.src >= 0 && f.src < numNodes, "bad flow source");
    MAXMIN_CHECK_MSG(f.dst >= 0 && f.dst < numNodes, "bad flow destination");
    MAXMIN_CHECK_MSG(f.src != f.dst, "flow source equals destination");
    MAXMIN_CHECK_MSG(f.weight > 0.0, "flow weight must be positive");
    MAXMIN_CHECK_MSG(f.desiredRate.asPerSecond() > 0.0,
                     "flow desired rate must be positive");
    ids.push_back(f.id);
  }
  std::sort(ids.begin(), ids.end());
  MAXMIN_CHECK_MSG(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                   "duplicate flow ids");
}

NodeStack::NodeStack(NetContext& ctx, topo::NodeId self, Rng rng)
    : ctx_{ctx},
      sim_{ctx.simulator()},
      self_{self},
      rng_{rng},
      holdRetryTimer_{sim_},
      windowStart_{sim_.now()} {}

TimePoint NodeStack::now() const { return sim_.now(); }

// ---------------------------------------------------------------------------
// Queues
// ---------------------------------------------------------------------------

NodeStack::QueueKey NodeStack::keyFor(const Packet& p) const {
  switch (ctx_.config().discipline) {
    case QueueDiscipline::kPerDestination: return p.dst;
    case QueueDiscipline::kPerFlow: return p.flow;
    case QueueDiscipline::kSharedFifo: return kSharedKey;
  }
  return kSharedKey;
}

PacketQueue& NodeStack::queueFor(QueueKey key) {
  auto it = queues_.find(key);
  if (it == queues_.end()) {
    const int capacity = key == kSharedKey
                             ? ctx_.config().sharedBufferCapacity
                             : ctx_.config().queueCapacity;
    it = queues_.emplace(key, PacketQueue{capacity, now()}).first;
    serviceOrder_.push_back(key);
  }
  return it->second;
}

topo::NodeId NodeStack::destOf(QueueKey key, const PacketQueue& q) const {
  if (ctx_.config().discipline == QueueDiscipline::kPerDestination) {
    return static_cast<topo::NodeId>(key);
  }
  MAXMIN_CHECK(!q.empty());
  return q.front()->dst;
}

bool NodeStack::queueExistsFor(topo::NodeId dest) const {
  return queues_.contains(static_cast<QueueKey>(dest));
}

void NodeStack::enqueue(PacketPtr p) {
  const QueueKey key = keyFor(*p);
  PacketQueue& q = queueFor(key);
  MAXMIN_HIST("net.queue_occupancy", static_cast<std::int64_t>(q.size()));
  if (q.full()) {
    switch (ctx_.config().discipline) {
      case QueueDiscipline::kPerDestination:
        // Congestion avoidance should have held the sender; a transient
        // overshoot happens only for packets already in flight when the
        // last slot filled. Accept (soft limit) — the paper's scheme is
        // lossless.
        q.pushBack(std::move(p), now());
        break;
      case QueueDiscipline::kPerFlow:
        ++dropsTail_;  // drop-tail on the arriving packet
        MAXMIN_COUNT("net.drops_tail", 1);
        return;
      case QueueDiscipline::kSharedFifo:
        ++dropsTail_;  // "overwrite the packet at the tail of the queue"
        MAXMIN_COUNT("net.drops_tail", 1);
        q.overwriteTail(std::move(p));
        return;
    }
  } else {
    q.pushBack(std::move(p), now());
  }
  if (mac_ != nullptr) mac_->notifyTrafficPending();
}

void NodeStack::seedPacket(PacketPtr p) {
  MAXMIN_CHECK(operational_);
  MAXMIN_CHECK(p != nullptr);
  PacketQueue& q = queueFor(keyFor(*p));
  if (q.full()) return;
  q.pushBack(std::move(p), now());
  if (mac_ != nullptr) mac_->notifyTrafficPending();
}

// ---------------------------------------------------------------------------
// Flow sources
// ---------------------------------------------------------------------------

void NodeStack::addLocalFlow(const FlowSpec& spec) {
  MAXMIN_CHECK_MSG(spec.src == self_, "flow source is a different node");
  MAXMIN_CHECK(!sources_.contains(spec.id));
  auto [it, inserted] = sources_.emplace(spec.id, SourceState{});
  MAXMIN_CHECK(inserted);
  SourceState& s = it->second;
  s.spec = spec;
  s.timer = std::make_unique<sim::Timer>(sim_);
  scheduleNextGeneration(s);
}

double NodeStack::effectiveRate(const SourceState& s) const {
  const double desired = s.spec.desiredRate.asPerSecond();
  return s.limitPps ? std::min(desired, *s.limitPps) : desired;
}

void NodeStack::scheduleNextGeneration(SourceState& s) {
  if (!operational_) return;  // crashed: sources restart on recovery
  const double rate = effectiveRate(s);
  MAXMIN_CHECK(rate > 0.0);
  // +/-10% jitter decorrelates sources that share a rate, as real traffic
  // generators would; without it, synchronized arrivals beat against the
  // MAC in lockstep and create artificial phase effects.
  const double seconds = (1.0 / rate) * rng_.uniformReal(0.9, 1.1);
  s.timer->arm(Duration::seconds(seconds), [this, flow = s.spec.id] {
    auto it = sources_.find(flow);
    MAXMIN_CHECK(it != sources_.end());
    generate(it->second);
  });
}

void NodeStack::generate(SourceState& s) {
  ++s.counters.generatedAttempts;
  auto probe = Packet{};
  probe.flow = s.spec.id;
  probe.dst = s.spec.dst;
  PacketQueue& q = queueFor(keyFor(probe));
  // The source is subject to its own buffer: when the local queue is
  // full it slows down (paper §2.1: "the flow source will generate new
  // packets at a smaller rate if the network cannot deliver its desirable
  // rate") and the would-be packet is simply not generated. Under the
  // congestion-avoidance scheme this is the backpressure endpoint of
  // §2.2; under the baselines it models the same source adaptation (an
  // ungated 800 pkt/s source into a tail-overwrite buffer would
  // degenerately erase all relayed traffic).
  if (q.full()) {
    ++s.counters.blockedBySourceQueue;
  } else {
    auto p = std::make_shared<Packet>();
    p->flow = s.spec.id;
    p->src = self_;
    p->dst = s.spec.dst;
    p->seq = s.seq++;
    p->size = ctx_.config().packetSize;
    p->created = now();
    p->normalizedRate = s.mu;
    ++s.counters.admitted;
    ++admittedInWindow_[s.spec.id];
    enqueue(std::move(p));
  }
  scheduleNextGeneration(s);
}

void NodeStack::setRateLimit(FlowId flow, std::optional<double> pps) {
  auto it = sources_.find(flow);
  MAXMIN_CHECK_MSG(it != sources_.end(), "no local flow " << flow);
  if (pps) MAXMIN_CHECK(*pps > 0.0);
  it->second.limitPps = pps;
  // Re-arm so a large reduction takes effect now, not after the previously
  // scheduled (possibly much earlier) tick.
  scheduleNextGeneration(it->second);
}

std::optional<double> NodeStack::rateLimit(FlowId flow) const {
  const auto it = sources_.find(flow);
  MAXMIN_CHECK(it != sources_.end());
  return it->second.limitPps;
}

void NodeStack::setSourceMu(FlowId flow, double mu) {
  auto it = sources_.find(flow);
  MAXMIN_CHECK(it != sources_.end());
  it->second.mu = mu;
}

double NodeStack::sourceMu(FlowId flow) const {
  const auto it = sources_.find(flow);
  MAXMIN_CHECK(it != sources_.end());
  return it->second.mu;
}

const SourceCounters& NodeStack::sourceCounters(FlowId flow) const {
  const auto it = sources_.find(flow);
  MAXMIN_CHECK(it != sources_.end());
  return it->second.counters;
}

std::vector<FlowId> NodeStack::localFlows() const {
  std::vector<FlowId> ids;
  ids.reserve(sources_.size());
  for (const auto& [id, s] : sources_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---------------------------------------------------------------------------
// Fault handling
// ---------------------------------------------------------------------------

void NodeStack::setOperational(bool up) {
  if (operational_ == up) return;
  operational_ = up;
  if (!up) {
    // A crash loses everything held in RAM: queued packets, cached
    // neighbor state, health verdicts, in-window measurements. The
    // queues themselves stay registered (their identity is config, not
    // state) but are emptied, which also releases any backpressure this
    // node's "full" advertisements were about to justify.
    for (auto& [key, q] : queues_) {
      dropsAtCrash_ += static_cast<std::int64_t>(q.size());
      MAXMIN_COUNT("net.drops_at_crash", static_cast<std::int64_t>(q.size()));
      while (!q.empty()) q.popFront(now());
    }
    for (auto& [id, s] : sources_) s.timer->cancel();
    holdRetryTimer_.cancel();
    neighborBufferState_.clear();
    neighborHealth_.clear();
    downSample_.clear();
    upSample_.clear();
    admittedInWindow_.clear();
  } else {
    // Everything accumulated before the crash was lost with it, so the
    // measurement window restarts here: rates must be averaged over the
    // node's live time only, not the span that includes the outage. A
    // recovery landing exactly on a period boundary therefore yields a
    // zero-length window, which closeMeasurementWindow reports as
    // periodSeconds == 0 for the control plane to bridge.
    windowStart_ = now();
    for (auto& [key, q] : queues_) q.beginWindow(now());
    // Sorted flow order: each restart draws jitter from rng_, so the
    // iteration order is part of the deterministic replay.
    for (const FlowId id : localFlows()) {
      scheduleNextGeneration(sources_.at(id));
    }
    if (mac_ != nullptr) mac_->notifyTrafficPending();
  }
}

bool NodeStack::neighborDead(topo::NodeId nh) const {
  const auto it = neighborHealth_.find(nh);
  return it != neighborHealth_.end() && it->second.dead;
}

void NodeStack::noteNeighborFailure(topo::NodeId nh) {
  NeighborHealth& h = neighborHealth_[nh];
  if (!h.failing) {
    h.failing = true;
    h.failingSince = now();
    return;
  }
  if (!h.dead && now() - h.failingSince >= ctx_.config().neighborDeadTtl) {
    h.dead = true;
    // Stale "buffer full" advertisements from a dead neighbor must not
    // keep holding backpressure; age them out immediately.
    for (auto it = neighborBufferState_.begin();
         it != neighborBufferState_.end();) {
      it = it->first.first == nh ? neighborBufferState_.erase(it)
                                 : std::next(it);
    }
  }
}

void NodeStack::noteNeighborAlive(topo::NodeId nh) {
  const auto it = neighborHealth_.find(nh);
  if (it == neighborHealth_.end()) return;
  const bool wasDead = it->second.dead;
  neighborHealth_.erase(it);
  // A resurrected next hop unblocks queues that were draining to drops.
  if (wasDead && mac_ != nullptr) mac_->notifyTrafficPending();
}

std::int64_t NodeStack::drainDeadFront(QueueKey key, PacketQueue& q) {
  std::int64_t dropped = 0;
  while (!q.empty()) {
    const topo::NodeId dest = destOf(key, q);
    const topo::NodeId nh = ctx_.nextHop(self_, dest);
    if (nh == topo::kNoNode || !neighborDead(nh)) break;
    q.popFront(now());
    ++dropped;
  }
  return dropped;
}

// ---------------------------------------------------------------------------
// Backpressure (congestion avoidance of [3])
// ---------------------------------------------------------------------------

bool NodeStack::heldByBackpressure(topo::NodeId nextHopNode,
                                   topo::NodeId dest,
                                   TimePoint& expiry) const {
  const auto it = neighborBufferState_.find({nextHopNode, dest});
  if (it == neighborBufferState_.end() || !it->second.full) return false;
  const TimePoint lapse = it->second.heard + ctx_.config().holdStateTimeout;
  if (now() >= lapse) return false;  // stale advertisement: try anyway
  expiry = lapse;
  return true;
}

void NodeStack::armHoldRetry(TimePoint earliestExpiry) {
  const Duration wait =
      std::max(earliestExpiry - now(), Duration::micros(1));
  holdRetryTimer_.arm(wait, [this] {
    if (mac_ != nullptr) mac_->notifyTrafficPending();
  });
}

// ---------------------------------------------------------------------------
// mac::FrameClient
// ---------------------------------------------------------------------------

std::optional<mac::TxRequest> NodeStack::nextTxRequest() {
  if (!operational_ || serviceOrder_.empty()) return std::nullopt;
  const std::size_t n = serviceOrder_.size();
  bool anyHeld = false;
  TimePoint earliestExpiry = TimePoint::max();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t idx = (nextService_ + step) % n;
    const QueueKey key = serviceOrder_[idx];
    PacketQueue& q = queues_.at(key);
    if (q.empty()) continue;
    if (!neighborHealth_.empty()) {
      // Dead-neighbor liveness: packets routed through a written-off
      // next hop drain to drops here rather than wedging the queue (and
      // everything upstream of it) forever.
      {
        const std::int64_t drained = drainDeadFront(key, q);
        dropsDeadNextHop_ += drained;
        if (drained > 0) MAXMIN_COUNT("net.drops_dead_next_hop", drained);
      }
      if (q.empty()) continue;
    }
    const topo::NodeId dest = destOf(key, q);
    const topo::NodeId nh = ctx_.nextHop(self_, dest);
    MAXMIN_CHECK_MSG(nh != topo::kNoNode,
                     "no route from " << self_ << " to " << dest);
    if (ctx_.config().congestionAvoidance) {
      // The advertised buffer-state key: the destination for per-
      // destination queueing, the shared sentinel otherwise.
      const topo::NodeId bpKey =
          ctx_.config().discipline == QueueDiscipline::kPerDestination
              ? dest
              : topo::kNoNode;
      TimePoint expiry;
      if (heldByBackpressure(nh, bpKey, expiry)) {
        MAXMIN_COUNT("net.backpressure_stalls", 1);
        anyHeld = true;
        earliestExpiry = std::min(earliestExpiry, expiry);
        continue;
      }
    }
    nextService_ = (idx + 1) % n;
    PacketPtr p = q.popFront(now());
    return mac::TxRequest{nh, p, p->size};
  }
  if (anyHeld) armHoldRetry(earliestExpiry);
  return std::nullopt;
}

void NodeStack::onTxSuccess(const mac::TxRequest& request) {
  if (!neighborHealth_.empty()) noteNeighborAlive(request.nextHop);
  LinkAccumulator& s = downSample_[request.packet->dst];
  ++s.packets;
  double& mu = s.flowMu[request.packet->flow];
  mu = std::max(mu, request.packet->normalizedRate);
  (void)request;
}

void NodeStack::onTxFailure(const mac::TxRequest& request) {
  if (!operational_) return;  // crashed mid-exchange: queues are gone
  if (ctx_.config().neighborDeadTtl > Duration::zero()) {
    noteNeighborFailure(request.nextHop);
    if (neighborDead(request.nextHop)) {
      // The next hop has been unreachable past the TTL: report a drop
      // instead of requeueing into a guaranteed retry loop. The MAC is
      // freed to serve other queues immediately.
      ++dropsDeadNextHop_;
      MAXMIN_COUNT("net.drops_dead_next_hop", 1);
      if (mac_ != nullptr) mac_->notifyTrafficPending();
      return;
    }
  }
  // Keep the packet: the paper's protocols are lossless above the MAC.
  // Re-offer it at the head of its queue; the MAC will retry with a fresh
  // contention round.
  queueFor(keyFor(*request.packet)).pushFront(request.packet, now());
  if (mac_ != nullptr) mac_->notifyTrafficPending();
}

void NodeStack::onDataReceived(const phys::Frame& frame) {
  MAXMIN_CHECK(frame.packet != nullptr);
  const Packet& p = *frame.packet;
  // Duplicate suppression (the MAC still ACKed the retransmission).
  if (auto it = lastSeqAccepted_.find(p.flow);
      it != lastSeqAccepted_.end() && p.seq <= it->second) {
    ++duplicatesDropped_;
    return;
  }
  lastSeqAccepted_[p.flow] = p.seq;
  LinkAccumulator& s = upSample_[{frame.transmitter, p.dst}];
  ++s.packets;
  double& mu = s.flowMu[p.flow];
  mu = std::max(mu, p.normalizedRate);
  if (p.dst == self_) {
    ctx_.recordDelivery(p, now());
  } else {
    enqueue(frame.packet);
  }
}

std::vector<phys::BufferStateAd> NodeStack::currentBufferState() {
  std::vector<phys::BufferStateAd> ads;
  switch (ctx_.config().discipline) {
    case QueueDiscipline::kPerDestination:
      ads.reserve(queues_.size());
      for (const auto& [key, q] : queues_) {
        ads.push_back(
            phys::BufferStateAd{static_cast<topo::NodeId>(key), q.full()});
      }
      // Destination order: the ads ride on every frame, so their order is
      // part of the deterministic replay (the store is hashed).
      std::sort(ads.begin(), ads.end(),
                [](const phys::BufferStateAd& a, const phys::BufferStateAd& b) {
                  return a.destination < b.destination;
                });
      break;
    case QueueDiscipline::kSharedFifo:
      // One buffer for everything (Fig. 1(b) mode): a single state bit,
      // keyed by the "any destination" sentinel.
      if (const auto it = queues_.find(kSharedKey); it != queues_.end()) {
        ads.push_back(phys::BufferStateAd{topo::kNoNode, it->second.full()});
      }
      break;
    case QueueDiscipline::kPerFlow:
      break;  // 2PP does not use the congestion-avoidance scheme
  }
  return ads;
}

void NodeStack::setControlHandler(
    std::function<void(const phys::Frame&)> handler) {
  controlHandler_ = std::move(handler);
}

void NodeStack::onControlReceived(const phys::Frame& frame) {
  if (controlHandler_) controlHandler_(frame);
}

void NodeStack::onFrameDecoded(const phys::Frame& frame) {
  // Decoding anything from a neighbor proves it is alive again.
  if (!neighborHealth_.empty()) noteNeighborAlive(frame.transmitter);
  if (frame.bufferState.empty()) return;
  bool anyCleared = false;
  for (const phys::BufferStateAd& ad : frame.bufferState) {
    auto& entry = neighborBufferState_[{frame.transmitter, ad.destination}];
    if (entry.full && !ad.full) anyCleared = true;
    entry.full = ad.full;
    entry.heard = now();
  }
  if (anyCleared && mac_ != nullptr) mac_->notifyTrafficPending();
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

VirtualLinkSample NodeStack::toSample(const LinkAccumulator& acc) {
  VirtualLinkSample s;
  s.packets = acc.packets;
  s.flowMu.insert(acc.flowMu.begin(), acc.flowMu.end());
  return s;
}

NodePeriodMeasurement NodeStack::closeMeasurementWindow() {
  NodePeriodMeasurement m;
  m.node = self_;
  const TimePoint end = now();
  m.periodSeconds = (end - windowStart_).asSeconds();
  MAXMIN_CHECK(m.periodSeconds >= 0.0);
  if (m.periodSeconds <= 0.0) {
    // Recovery landed exactly on the period boundary: there was no live
    // time to measure. Hand back an explicitly empty window (rates are
    // undefined, not zero) and let the controller's staleness machinery
    // bridge or mark this node.
    downSample_.clear();
    upSample_.clear();
    admittedInWindow_.clear();
    return m;
  }

  if (ctx_.config().discipline == QueueDiscipline::kPerDestination) {
    for (auto& [key, q] : queues_) {
      m.queueFullFraction[static_cast<topo::NodeId>(key)] =
          q.fullFraction(windowStart_, end);
      q.beginWindow(end);
    }
  }
  // Convert the hashed accumulators into the sorted report form the
  // control plane consumes (its iteration order feeds the deterministic
  // GMP computation). Once per period, so the n log n is off the per-
  // packet path.
  for (const auto& [dest, acc] : downSample_) {
    m.downstream.emplace(dest, toSample(acc));
  }
  for (const auto& [key, acc] : upSample_) {
    m.upstream.emplace(key, toSample(acc));
  }
  downSample_.clear();
  upSample_.clear();
  for (auto& [flow, count] : admittedInWindow_) {
    m.localFlowRate[flow] = static_cast<double>(count) / m.periodSeconds;
  }
  admittedInWindow_.clear();
  windowStart_ = end;
  return m;
}

}  // namespace maxmin::net
