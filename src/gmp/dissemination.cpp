#include "gmp/dissemination.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/json.hpp"
#include "topology/dominating_set.hpp"
#include "util/check.hpp"

namespace maxmin::gmp {

DataSize LinkStateDissemination::messageSize(std::size_t states) {
  // origin + seq + count (8 B) plus 12 B per entry (two node ids, two
  // quantized values) — a deliberately compact wire format.
  return DataSize::bytes(8 + 12 * static_cast<std::int64_t>(states));
}

bool LinkStateDissemination::seqNewer(std::int64_t a, std::int64_t b) {
  // RFC 1982 serial-number arithmetic: a is newer than b iff it lies in
  // the half of the sequence space "ahead" of b. Survives wraparound:
  // seq 3 is newer than seq 65534.
  const std::int64_t d = ((a - b) % kSeqModulus + kSeqModulus) % kSeqModulus;
  return d != 0 && d < kSeqModulus / 2;
}

LinkStateDissemination::LinkStateDissemination(net::Network& net) : net_{net} {
  const int n = net.topology().numNodes();
  relays_.reserve(static_cast<std::size_t>(n));
  for (topo::NodeId id = 0; id < n; ++id) {
    relays_.push_back(topo::computeDominatingSet(net.topology(), id));
  }
  stores_.assign(static_cast<std::size_t>(n), {});
  heardAt_.assign(static_cast<std::size_t>(n), {});
  seen_.assign(static_cast<std::size_t>(n), {});
  latest_.assign(static_cast<std::size_t>(n), {});
  for (topo::NodeId id = 0; id < n; ++id) {
    net_.stack(id).setControlHandler(
        [this, id](const phys::Frame& frame) { onControl(id, frame); });
  }
  attachFaultPlane();
}

void LinkStateDissemination::attachFaultPlane() {
  if (faults_ != nullptr) return;
  faults_ = net_.faultPlane();
  if (faults_ != nullptr) faults_->addListener(this);
}

void LinkStateDissemination::enableReliability(const ReliabilityParams& params) {
  MAXMIN_CHECK(params.maxRetransmits >= 0);
  MAXMIN_CHECK(params.ackTimeout > Duration::zero());
  MAXMIN_CHECK(params.backoffFactor >= 1.0 && params.jitterFrac >= 0.0);
  reliability_ = params;
  if (!rng_) rng_.emplace(Rng{net_.config().seed}.stream("dissemination"));
}

bool LinkStateDissemination::nodeAlive(topo::NodeId n) const {
  return faults_ == nullptr || faults_->nodeUp(n);
}

bool LinkStateDissemination::linkAlive(topo::NodeId a, topo::NodeId b) const {
  return faults_ == nullptr || faults_->linkUp(a, b);
}

std::vector<topo::NodeId> LinkStateDissemination::expectedEchoes(
    topo::NodeId origin) const {
  std::vector<topo::NodeId> expected;
  for (const topo::NodeId r : relays_.at(static_cast<std::size_t>(origin))) {
    if (nodeAlive(r) && linkAlive(origin, r)) expected.push_back(r);
  }
  return expected;
}

// ---------------------------------------------------------------------------
// Dominating-set repair
// ---------------------------------------------------------------------------

void LinkStateDissemination::repairCenters(
    const std::vector<topo::NodeId>& centers) {
  const topo::Topology& topo = net_.topology();
  std::vector<char> alive(static_cast<std::size_t>(topo.numNodes()), 1);
  for (topo::NodeId n = 0; n < topo.numNodes(); ++n) {
    alive[static_cast<std::size_t>(n)] = faults_->nodeUp(n) ? 1 : 0;
  }
  const auto link = [this](topo::NodeId a, topo::NodeId b) {
    return faults_->linkUp(a, b);
  };
  for (const topo::NodeId c : centers) {
    auto repaired = topo::computeDominatingSet(topo, c, alive, link);
    auto& current = relays_.at(static_cast<std::size_t>(c));
    if (repaired == current) continue;
    current = std::move(repaired);
    ++relayRepairs_;
    if (trace_ != nullptr && trace_->wantsEvents()) {
      obs::JsonWriter w;
      w.beginObject();
      w.key("record").value("relay_repair");
      w.key("timeUs").value(net_.now().asMicros());
      w.key("center").value(c);
      w.key("relays").beginArray();
      for (const topo::NodeId r : current) w.value(r);
      w.endArray();
      w.endObject();
      trace_->writeRecord(w.str());
    }
  }
}

void LinkStateDissemination::onNodeDown(std::int32_t node) {
  if (!repairEnabled_ || faults_ == nullptr) return;
  std::vector<topo::NodeId> centers{node};
  const auto& scope = net_.topology().twoHopNeighborhood(node);
  centers.insert(centers.end(), scope.begin(), scope.end());
  repairCenters(centers);
}

void LinkStateDissemination::onNodeUp(std::int32_t node) { onNodeDown(node); }

void LinkStateDissemination::onLinkChanged(std::int32_t a, std::int32_t b,
                                           bool /*up*/) {
  if (!repairEnabled_ || faults_ == nullptr) return;
  std::set<topo::NodeId> centers{a, b};
  for (const topo::NodeId n : net_.topology().twoHopNeighborhood(a)) {
    centers.insert(n);
  }
  for (const topo::NodeId n : net_.topology().twoHopNeighborhood(b)) {
    centers.insert(n);
  }
  repairCenters({centers.begin(), centers.end()});
}

// ---------------------------------------------------------------------------
// Announce / receive
// ---------------------------------------------------------------------------

void LinkStateDissemination::announce(topo::NodeId origin,
                                      std::vector<LinkStateAd> states) {
  auto msg = std::make_shared<LinkStateMessage>();
  msg->origin = origin;
  msg->seq = nextSeq_[origin] % kSeqModulus;
  nextSeq_[origin] = (msg->seq + 1) % kSeqModulus;
  msg->states = std::move(states);

  // The origin knows its own announcement.
  recordState(origin, *msg);
  seen_.at(static_cast<std::size_t>(origin)).insert({origin, msg->seq});
  latest_.at(static_cast<std::size_t>(origin))[origin] =
      OriginFreshness{msg->seq, net_.now()};

  const DataSize size = messageSize(msg->states.size());
  if (reliability_) {
    // Track the announcement until every currently-alive relay has been
    // overheard echoing it (or the retransmit budget runs out).
    const auto expected = expectedEchoes(origin);
    if (!expected.empty()) {
      const PendingKey key{origin, msg->seq};
      PendingAck& p = pending_.try_emplace(key, *this, key).first->second;
      p.msg = msg;
      p.attempts = 0;
      p.acked.clear();
      p.wait = reliability_->ackTimeout;
      armPendingTimer(key);
    }
  }
  net_.macOf(origin).enqueueBroadcast(std::move(msg), size);
  ++messagesSent_;
}

void LinkStateDissemination::armPendingTimer(const PendingKey& key) {
  PendingAck& p = pending_.at(key);
  const double jitter =
      1.0 + reliability_->jitterFrac * rng_->uniformReal(0.0, 1.0);
  const Duration wait = Duration::seconds(p.wait.asSeconds() * jitter);
  p.timer.arm(wait);
}

void LinkStateDissemination::onAckTimeout(const PendingKey& key) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  PendingAck& p = it->second;
  const topo::NodeId origin = key.first;
  if (!nodeAlive(origin)) {
    pending_.erase(it);  // a dead origin retransmits nothing
    return;
  }
  // Re-evaluate against the *current* relay set: repair may have removed
  // a dead relay (whose echo will never come) or added a new one.
  const auto expected = expectedEchoes(origin);
  const bool missing =
      std::any_of(expected.begin(), expected.end(), [&](topo::NodeId r) {
        return !p.acked.contains(r);
      });
  if (!missing) {
    pending_.erase(it);
    return;
  }
  if (p.attempts >= reliability_->maxRetransmits) {
    ++deliveryFailures_;
    if (trace_ != nullptr && trace_->wantsEvents()) {
      obs::JsonWriter w;
      w.beginObject();
      w.key("record").value("delivery_failure");
      w.key("timeUs").value(net_.now().asMicros());
      w.key("origin").value(origin);
      w.key("seq").value(key.second);
      w.endObject();
      trace_->writeRecord(w.str());
    }
    pending_.erase(it);
    return;
  }
  ++p.attempts;
  ++retransmits_;
  if (trace_ != nullptr && trace_->wantsEvents()) {
    obs::JsonWriter w;
    w.beginObject();
    w.key("record").value("retransmit");
    w.key("timeUs").value(net_.now().asMicros());
    w.key("origin").value(origin);
    w.key("seq").value(key.second);
    w.key("attempt").value(p.attempts);
    w.endObject();
    trace_->writeRecord(w.str());
  }
  auto copy = std::make_shared<LinkStateMessage>(*p.msg);
  net_.macOf(origin).enqueueBroadcast(std::move(copy),
                                      messageSize(p.msg->states.size()));
  p.wait = Duration::seconds(p.wait.asSeconds() * reliability_->backoffFactor);
  armPendingTimer(key);
}

void LinkStateDissemination::recordState(topo::NodeId receiver,
                                         const LinkStateMessage& msg) {
  auto& store = stores_.at(static_cast<std::size_t>(receiver));
  auto& heard = heardAt_.at(static_cast<std::size_t>(receiver));
  const TimePoint now = net_.now();
  for (const LinkStateAd& ad : msg.states) {
    store[ad.link] = ad;
    heard[ad.link] = now;
  }
}

void LinkStateDissemination::onControl(topo::NodeId receiver,
                                       const phys::Frame& frame) {
  const auto* msg =
      dynamic_cast<const LinkStateMessage*>(frame.control.get());
  if (msg == nullptr) return;  // someone else's control traffic

  // Implicit ack (serval-style): the origin overhearing a relay's
  // rebroadcast of its own message is the delivery confirmation. Runs
  // before dedup — the echo is by definition a duplicate at the origin.
  if (!pending_.empty() && receiver == msg->origin) {
    if (const auto it = pending_.find({msg->origin, msg->seq});
        it != pending_.end()) {
      it->second.acked.insert(frame.transmitter);
      ++implicitAcks_;
      const auto expected = expectedEchoes(msg->origin);
      const bool allAcked =
          std::all_of(expected.begin(), expected.end(), [&](topo::NodeId r) {
            return it->second.acked.contains(r);
          });
      if (allAcked) pending_.erase(it);  // Timer dtor cancels the backoff
    }
  }

  auto& seen = seen_.at(static_cast<std::size_t>(receiver));
  if (!seen.insert({msg->origin, msg->seq}).second) {
    ++duplicatesDropped_;  // exact duplicate (relay echo or retransmit)
    return;
  }

  // Freshness: only serially-newer announcements update the store and
  // get relayed; a reordered older one must not overwrite newer state.
  // The high water mark itself expires after freshnessTtl_, so an origin
  // that rebooted and restarted at seq 0 is accepted once its old
  // (higher) sequence numbers have gone quiet.
  auto& fresh = latest_.at(static_cast<std::size_t>(receiver));
  const TimePoint now = net_.now();
  if (const auto it = fresh.find(msg->origin); it != fresh.end()) {
    if (!seqNewer(msg->seq, it->second.lastSeq)) {
      if (now - it->second.heardAt <= freshnessTtl_) {
        ++staleDropped_;  // reordered or stale announcement
        return;
      }
      ++rebootAccepts_;
    }
  }
  fresh[msg->origin] = OriginFreshness{msg->seq, now};

  recordState(receiver, *msg);

  // Relay once if this receiver is in the *transmitter's* dominating set
  // (paper §6.2: "When a node in their dominating sets overhears this
  // information, the node rebroadcasts it to its neighbors").
  const auto& relaySet =
      relays_.at(static_cast<std::size_t>(frame.transmitter));
  if (std::binary_search(relaySet.begin(), relaySet.end(), receiver)) {
    auto copy = std::make_shared<LinkStateMessage>(*msg);
    net_.macOf(receiver).enqueueBroadcast(std::move(copy),
                                          messageSize(msg->states.size()));
    ++rebroadcasts_;
  }
}

// ---------------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------------

void LinkStateDissemination::pruneExpired(topo::NodeId at) {
  auto& heard = heardAt_.at(static_cast<std::size_t>(at));
  auto& store = stores_.at(static_cast<std::size_t>(at));
  const TimePoint now = net_.now();
  for (auto it = heard.begin(); it != heard.end();) {
    if (now - it->second > stateTtl_) {
      store.erase(it->first);
      it = heard.erase(it);
      ++expiredStates_;
    } else {
      ++it;
    }
  }
}

const std::map<topo::Link, LinkStateAd>& LinkStateDissemination::knownStates(
    topo::NodeId at) {
  pruneExpired(at);
  return stores_.at(static_cast<std::size_t>(at));
}

std::vector<topo::NodeId> LinkStateDissemination::reachedBy(
    topo::NodeId origin, std::int64_t seq) const {
  std::vector<topo::NodeId> reached;
  for (topo::NodeId id = 0; id < net_.topology().numNodes(); ++id) {
    if (seen_.at(static_cast<std::size_t>(id)).contains({origin, seq})) {
      reached.push_back(id);
    }
  }
  return reached;
}

}  // namespace maxmin::gmp
