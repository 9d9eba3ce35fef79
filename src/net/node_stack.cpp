#include "net/node_stack.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "topology/routing.hpp"
#include "util/check.hpp"

namespace maxmin::net {

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

std::vector<std::vector<topo::NodeId>> routeFlows(
    const topo::Topology& topo, const std::vector<FlowSpec>& flows) {
  validateFlows(flows, topo.numNodes());
  std::map<topo::NodeId, topo::RoutingTree> trees;
  std::vector<std::vector<topo::NodeId>> paths;
  paths.reserve(flows.size());
  for (const FlowSpec& f : flows) {
    auto it = trees.find(f.dst);
    if (it == trees.end()) {
      it = trees.emplace(f.dst, topo::RoutingTree::shortestPaths(topo, f.dst))
               .first;
    }
    MAXMIN_CHECK_MSG(it->second.reaches(f.src),
                     "flow " << f.id << " unroutable");
    paths.push_back(it->second.pathFrom(f.src));
  }
  return paths;
}

NodeStack::NodeStack(NetContext& ctx, topo::NodeId self, Rng rng)
    : ctx_{ctx},
      sim_{ctx.simulator()},
      self_{self},
      rng_{rng},
      neighbors_{ctx.topology().neighbors(self)},
      adSlots_{ctx.config().discipline == QueueDiscipline::kPerDestination
                   ? ctx.numDestinations()
                   : 1},
      holdRetryTimer_{sim_},
      windowStart_{sim_.now()} {
  switch (ctx_.config().discipline) {
    case QueueDiscipline::kPerDestination:
      queueIndex_.assign(static_cast<std::size_t>(ctx_.numDestinations()), -1);
      break;
    case QueueDiscipline::kPerFlow:
      queueIndex_.assign(static_cast<std::size_t>(ctx_.numFlows()), -1);
      break;
    case QueueDiscipline::kSharedFifo:
      queueIndex_.assign(1, -1);
      break;
  }
}

TimePoint NodeStack::now() const { return sim_.now(); }

// ---------------------------------------------------------------------------
// Queues
// ---------------------------------------------------------------------------

int NodeStack::queueSlotFor(const Packet& p) const {
  int slot = 0;
  switch (ctx_.config().discipline) {
    case QueueDiscipline::kPerDestination: slot = ctx_.destSlot(p.dst); break;
    case QueueDiscipline::kPerFlow: slot = ctx_.flowSlot(p.flow); break;
    case QueueDiscipline::kSharedFifo: break;
  }
  MAXMIN_CHECK_MSG(slot >= 0, "packet of flow " << p.flow << " to " << p.dst
                                                << " is not a network flow's");
  return slot;
}

PacketQueue& NodeStack::queueFor(int slot) {
  int& index = queueIndex_[static_cast<std::size_t>(slot)];
  if (index < 0) {
    const int capacity =
        ctx_.config().discipline == QueueDiscipline::kSharedFifo
            ? ctx_.config().sharedBufferCapacity
            : ctx_.config().queueCapacity;
    index = static_cast<int>(queues_.size());
    queues_.push_back(SlotQueue{slot, PacketQueue{capacity, now()}});
  }
  return queues_[static_cast<std::size_t>(index)].q;
}

int NodeStack::destSlotOf(const SlotQueue& e) const {
  if (ctx_.config().discipline == QueueDiscipline::kPerDestination) {
    return e.slot;
  }
  MAXMIN_CHECK(!e.q.empty());
  return ctx_.destSlot(e.q.front()->dst);
}

const NodeStack::Hop& NodeStack::hopToward(int destSlot) {
  // Routes are static; only nodes that forward ever fill the table.
  if (hops_.empty()) {
    hops_.resize(static_cast<std::size_t>(ctx_.numDestinations()));
    for (int slot = 0; slot < ctx_.numDestinations(); ++slot) {
      Hop& h = hops_[static_cast<std::size_t>(slot)];
      h.node = ctx_.nextHop(self_, slot);
      if (h.node == topo::kNoNode) continue;
      h.rank = neighborRank(h.node);
      MAXMIN_CHECK_MSG(h.rank >= 0, "next hop " << h.node
                                                << " is not a neighbour of "
                                                << self_);
    }
  }
  return hops_[static_cast<std::size_t>(destSlot)];
}

int NodeStack::neighborRank(topo::NodeId nb) const {
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), nb);
  if (it == neighbors_.end() || *it != nb) return -1;
  return static_cast<int>(it - neighbors_.begin());
}

void NodeStack::enqueue(PacketPtr p) {
  PacketQueue& q = queueFor(queueSlotFor(*p));
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
        return;
      case QueueDiscipline::kSharedFifo:
        ++dropsTail_;  // "overwrite the packet at the tail of the queue"
        q.overwriteTail(std::move(p));
        return;
    }
  } else {
    q.pushBack(std::move(p), now());
  }
  queueHighWater_ = std::max(queueHighWater_, q.size());
  if (mac_ != nullptr) mac_->notifyTrafficPending();
}

void NodeStack::seedPacket(PacketPtr p) {
  MAXMIN_CHECK(operational_);
  MAXMIN_CHECK(p != nullptr);
  PacketQueue& q = queueFor(queueSlotFor(*p));
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
  PacketQueue& q = queueFor(queueSlotFor(probe));
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
    for (auto& [slot, q] : queues_) {
      dropsAtCrash_ += static_cast<std::int64_t>(q.size());
      while (!q.empty()) q.popFront(now());
    }
    for (auto& [id, s] : sources_) s.timer->cancel();
    holdRetryTimer_.cancel();
    neighborBufferState_.clear();
    neighborHealth_.clear();
    failingNeighbors_ = 0;
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
    for (auto& [slot, q] : queues_) q.beginWindow(now());
    // Sorted flow order: each restart draws jitter from rng_, so the
    // iteration order is part of the deterministic replay.
    for (const FlowId id : localFlows()) {
      scheduleNextGeneration(sources_.at(id));
    }
    if (mac_ != nullptr) mac_->notifyTrafficPending();
  }
}

bool NodeStack::rankDead(int rank) const {
  return rank >= 0 && !neighborHealth_.empty() &&
         neighborHealth_[static_cast<std::size_t>(rank)].dead;
}

bool NodeStack::neighborDead(topo::NodeId nh) const {
  return rankDead(neighborRank(nh));
}

void NodeStack::noteNeighborFailure(topo::NodeId nh) {
  const int rank = neighborRank(nh);
  MAXMIN_CHECK_MSG(rank >= 0, nh << " is not a neighbour of " << self_);
  if (neighborHealth_.empty()) neighborHealth_.resize(neighbors_.size());
  NeighborHealth& h = neighborHealth_[static_cast<std::size_t>(rank)];
  if (!h.failing) {
    h.failing = true;
    h.failingSince = now();
    ++failingNeighbors_;
    return;
  }
  if (!h.dead && now() - h.failingSince >= ctx_.config().neighborDeadTtl) {
    h.dead = true;
    // Stale "buffer full" advertisements from a dead neighbor must not
    // keep holding backpressure; age them out immediately.
    if (!neighborBufferState_.empty()) {
      const auto row = neighborBufferState_.begin() + rank * adSlots_;
      std::fill(row, row + adSlots_, kNotFull);
    }
  }
}

void NodeStack::noteNeighborAlive(topo::NodeId nh) {
  const int rank = neighborRank(nh);
  if (rank < 0) return;
  NeighborHealth& h = neighborHealth_[static_cast<std::size_t>(rank)];
  if (!h.failing) return;
  const bool wasDead = h.dead;
  h = NeighborHealth{};
  --failingNeighbors_;
  // A resurrected next hop unblocks queues that were draining to drops.
  if (wasDead && mac_ != nullptr) mac_->notifyTrafficPending();
}

std::int64_t NodeStack::drainDeadFront(SlotQueue& e) {
  std::int64_t dropped = 0;
  while (!e.q.empty()) {
    const Hop& hop = hopToward(destSlotOf(e));
    if (hop.node == topo::kNoNode || !rankDead(hop.rank)) break;
    e.q.popFront(now());
    ++dropped;
  }
  return dropped;
}

// ---------------------------------------------------------------------------
// Backpressure (congestion avoidance of [3])
// ---------------------------------------------------------------------------

bool NodeStack::heldByBackpressure(int nbRank, int adSlot,
                                   TimePoint& expiry) const {
  if (neighborBufferState_.empty()) return false;  // nothing heard yet
  const TimePoint heard =
      neighborBufferState_[static_cast<std::size_t>(nbRank * adSlots_ + adSlot)];
  if (heard == kNotFull) return false;
  const TimePoint lapse = heard + ctx_.config().holdStateTimeout;
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
  if (!operational_ || queues_.empty()) return std::nullopt;
  const std::size_t n = queues_.size();
  bool anyHeld = false;
  TimePoint earliestExpiry = TimePoint::max();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t idx = (nextService_ + step) % n;
    SlotQueue& e = queues_[idx];
    PacketQueue& q = e.q;
    if (q.empty()) continue;
    if (failingNeighbors_ > 0) {
      // Dead-neighbor liveness: packets routed through a written-off
      // next hop drain to drops here rather than wedging the queue (and
      // everything upstream of it) forever.
      dropsDeadNextHop_ += drainDeadFront(e);
      if (q.empty()) continue;
    }
    const int destSlot = destSlotOf(e);
    const Hop& hop = hopToward(destSlot);
    MAXMIN_CHECK_MSG(hop.node != topo::kNoNode,
                     "no route from " << self_ << " to "
                                      << ctx_.destination(destSlot));
    if (ctx_.config().congestionAvoidance) {
      // The advertised buffer-state slot: the destination's under per-
      // destination queueing, the shared buffer's otherwise.
      const int adSlot =
          ctx_.config().discipline == QueueDiscipline::kPerDestination
              ? destSlot
              : 0;
      TimePoint expiry;
      if (heldByBackpressure(hop.rank, adSlot, expiry)) {
        ++backpressureStalls_;
        anyHeld = true;
        earliestExpiry = std::min(earliestExpiry, expiry);
        continue;
      }
    }
    nextService_ = (idx + 1) % n;
    PacketPtr p = q.popFront(now());
    return mac::TxRequest{hop.node, p, p->size};
  }
  if (anyHeld) armHoldRetry(earliestExpiry);
  return std::nullopt;
}

bool NodeStack::hasBacklog() const {
  return std::any_of(queues_.begin(), queues_.end(),
                     [](const SlotQueue& e) { return !e.q.empty(); });
}

void NodeStack::onTxSuccess(const mac::TxRequest& request) {
  if (failingNeighbors_ > 0) noteNeighborAlive(request.nextHop);
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
      if (mac_ != nullptr) mac_->notifyTrafficPending();
      return;
    }
  }
  // Keep the packet: the paper's protocols are lossless above the MAC.
  // Re-offer it at the head of its queue; the MAC will retry with a fresh
  // contention round.
  queueFor(queueSlotFor(*request.packet)).pushFront(request.packet, now());
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
      // Destination order — slot order — since the ads ride on every
      // frame and their order is part of the deterministic replay.
      ads.reserve(queues_.size());
      for (std::size_t slot = 0; slot < queueIndex_.size(); ++slot) {
        const int index = queueIndex_[slot];
        if (index < 0) continue;
        ads.push_back(phys::BufferStateAd{
            ctx_.destination(static_cast<int>(slot)),
            queues_[static_cast<std::size_t>(index)].q.full()});
      }
      break;
    case QueueDiscipline::kSharedFifo:
      // One buffer for everything (Fig. 1(b) mode): a single state bit,
      // keyed by the "any destination" sentinel.
      if (!queues_.empty()) {
        ads.push_back(phys::BufferStateAd{topo::kNoNode, queues_[0].q.full()});
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
  if (failingNeighbors_ > 0) noteNeighborAlive(frame.transmitter);
  if (frame.bufferState.empty()) return;
  const int rank = neighborRank(frame.transmitter);
  MAXMIN_CHECK_MSG(rank >= 0, "decoded a frame from non-neighbour "
                                  << frame.transmitter << " at " << self_);
  if (neighborBufferState_.empty()) {
    neighborBufferState_.assign(neighbors_.size() *
                                    static_cast<std::size_t>(adSlots_),
                                kNotFull);
  }
  TimePoint* row = neighborBufferState_.data() + rank * adSlots_;
  bool anyCleared = false;
  for (const phys::BufferStateAd& ad : frame.bufferState) {
    const int adSlot =
        ad.destination == topo::kNoNode ? 0 : ctx_.destSlot(ad.destination);
    MAXMIN_CHECK(adSlot >= 0 && adSlot < adSlots_);
    TimePoint& heard = row[adSlot];
    if (heard != kNotFull && !ad.full) anyCleared = true;
    heard = ad.full ? now() : kNotFull;
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
    for (auto& [slot, q] : queues_) {
      m.queueFullFraction[ctx_.destination(slot)] =
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
