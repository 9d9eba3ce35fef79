#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "mac/dcf.hpp"
#include "net/packet.hpp"
#include "phys/medium.hpp"
#include "sim/simulator.hpp"
#include "test_timers.hpp"

namespace maxmin::mac {
namespace {

/// Minimal upper layer: a FIFO of link-layer sends toward a fixed next hop.
/// By default it reports a backlog at all times (FrameClient's default),
/// so its MAC never parks; with `parks` it reports its FIFO's state.
class StubClient final : public FrameClient {
 public:
  explicit StubClient(topo::NodeId self, bool parks = false)
      : self_{self}, parks_{parks} {}

  void queuePackets(topo::NodeId nextHop, int count, DataSize size) {
    for (int i = 0; i < count; ++i) {
      auto p = std::make_shared<net::Packet>();
      p->flow = 0;
      p->src = self_;
      p->dst = nextHop;
      p->seq = seq_++;
      p->size = size;
      pending_.push_back(TxRequest{nextHop, std::move(p), size});
    }
  }

  std::optional<TxRequest> nextTxRequest() override {
    if (pending_.empty()) return std::nullopt;
    TxRequest r = pending_.front();
    pending_.pop_front();
    return r;
  }
  bool hasBacklog() const override { return !parks_ || !pending_.empty(); }
  void onTxSuccess(const TxRequest&) override { ++successes; }
  void onTxFailure(const TxRequest&) override { ++failures; }
  void onDataReceived(const phys::Frame& f) override {
    dataReceived.push_back(f);
  }
  std::vector<phys::BufferStateAd> currentBufferState() override {
    return ads;
  }
  void onFrameDecoded(const phys::Frame& f) override {
    decoded.push_back(f);
  }

  int successes = 0;
  int failures = 0;
  std::vector<phys::Frame> dataReceived;
  std::vector<phys::Frame> decoded;
  std::vector<phys::BufferStateAd> ads;

 private:
  topo::NodeId self_;
  bool parks_;
  std::int64_t seq_ = 0;
  std::deque<TxRequest> pending_;
};

struct MacFixture {
  explicit MacFixture(std::vector<topo::Point> pts, MacParams params = {},
                      topo::RadioRanges ranges = {}, bool parks = false)
      : topo{topo::Topology::fromPositions(std::move(pts), ranges)},
        medium{sim, topo} {
    Rng root{99};
    for (topo::NodeId n = 0; n < topo.numNodes(); ++n) {
      clients.push_back(std::make_unique<StubClient>(n, parks));
      macs.push_back(std::make_unique<Dcf>(sim, medium, n, *clients.back(),
                                           params, root.fork()));
    }
  }
  sim::Simulator sim;
  topo::Topology topo;
  phys::Medium medium;
  std::vector<std::unique_ptr<StubClient>> clients;
  std::vector<std::unique_ptr<Dcf>> macs;
};

constexpr DataSize kPayload = DataSize::bytes(1024);

TEST(MacParams, TimingConstants) {
  const MacParams p;
  EXPECT_EQ(p.difs().asMicros(), 50);
  EXPECT_EQ(p.rtsDuration().asMicros(), 96 + 80);
  EXPECT_EQ(p.ctsDuration().asMicros(), 96 + 56);
  EXPECT_EQ(p.ackDuration().asMicros(), 96 + 56);
  // (1024 + 28) * 8 / 11 = 765.09 -> 766; plus 96 PLCP.
  EXPECT_EQ(p.dataDuration(DataSize::bytes(1024)).asMicros(), 96 + 766);
  EXPECT_GT(p.eifs(), p.difs());
  EXPECT_EQ(p.exchangeAirtime(DataSize::bytes(1024)),
            p.rtsDuration() + p.ctsDuration() +
                p.dataDuration(DataSize::bytes(1024)) + p.ackDuration() +
                p.sifs * 3);
}

TEST(Dcf, SingleExchangeDeliversPacket) {
  MacFixture f{{{0, 0}, {200, 0}}};
  f.clients[0]->queuePackets(1, 1, kPayload);
  f.macs[0]->notifyTrafficPending();
  f.sim.runUntil(TimePoint::origin() + Duration::millis(50));
  EXPECT_EQ(f.clients[0]->successes, 1);
  EXPECT_EQ(f.clients[0]->failures, 0);
  ASSERT_EQ(f.clients[1]->dataReceived.size(), 1u);
  EXPECT_EQ(f.clients[1]->dataReceived[0].packet->seq, 0);
  const auto& c = f.macs[0]->counters();
  EXPECT_EQ(c.rtsSent, 1u);
  EXPECT_EQ(c.dataSent, 1u);
  EXPECT_EQ(c.txSuccesses, 1u);
}

TEST(Dcf, BackToBackPacketsAllDelivered) {
  MacFixture f{{{0, 0}, {200, 0}}};
  f.clients[0]->queuePackets(1, 50, kPayload);
  f.macs[0]->notifyTrafficPending();
  f.sim.runUntil(TimePoint::origin() + Duration::seconds(1.0));
  EXPECT_EQ(f.clients[0]->successes, 50);
  EXPECT_EQ(f.clients[1]->dataReceived.size(), 50u);
}

TEST(Dcf, NoPeerMeansRetriesThenFailure) {
  // Node 1 exists in the topology but we point the packet at node 2,
  // which is out of range: RTS never answered.
  MacFixture f{{{0, 0}, {200, 0}, {5000, 0}}};
  f.clients[0]->queuePackets(2, 1, kPayload);
  f.macs[0]->notifyTrafficPending();
  f.sim.runUntil(TimePoint::origin() + Duration::seconds(2.0));
  EXPECT_EQ(f.clients[0]->successes, 0);
  EXPECT_EQ(f.clients[0]->failures, 1);
  const auto& c = f.macs[0]->counters();
  const MacParams p;
  EXPECT_EQ(c.rtsSent, static_cast<std::uint64_t>(p.shortRetryLimit) + 1);
  EXPECT_EQ(c.macDrops, 1u);
}

TEST(Dcf, TwoContendersShareChannelFairly) {
  // Nodes 0->1 and 2->3 in a tight square: every node senses every other,
  // so the contention is perfectly symmetric.
  MacFixture f{{{0, 0}, {200, 0}, {0, 100}, {200, 100}}};
  f.clients[0]->queuePackets(1, 100000, kPayload);
  f.clients[2]->queuePackets(3, 100000, kPayload);
  f.macs[0]->notifyTrafficPending();
  f.macs[2]->notifyTrafficPending();
  f.sim.runUntil(TimePoint::origin() + Duration::seconds(10.0));
  const int a = f.clients[0]->successes;
  const int b = f.clients[2]->successes;
  EXPECT_GT(a, 1000);
  EXPECT_GT(b, 1000);
  // DCF long-run fairness between two identical contenders.
  EXPECT_NEAR(static_cast<double>(a) / (a + b), 0.5, 0.05);
}

TEST(Dcf, SaturatedSingleLinkApproachesNominalThroughput) {
  MacFixture f{{{0, 0}, {200, 0}}};
  f.clients[0]->queuePackets(1, 1000000, kPayload);
  f.macs[0]->notifyTrafficPending();
  f.sim.runUntil(TimePoint::origin() + Duration::seconds(5.0));
  const MacParams p;
  // Per-exchange lower bound: DIFS + mean backoff + full exchange.
  const double exchangeUs = static_cast<double>(
      (p.difs() + p.exchangeAirtime(kPayload)).asMicros() +
      p.slotTime.asMicros() * p.cwMin / 2);
  const double expected = 5.0e6 / exchangeUs;
  EXPECT_NEAR(f.clients[0]->successes, expected, expected * 0.1);
  // Sanity: roughly 550-650 pkts/s for short-preamble 802.11b RTS/CTS at
  // 1024 B payloads.
  EXPECT_GT(f.clients[0]->successes / 5.0, 450.0);
  EXPECT_LT(f.clients[0]->successes / 5.0, 700.0);
}

TEST(Dcf, HiddenTerminalsStillMakeProgress) {
  // 0 -> 1 <- 2: with carrier-sense range equal to tx range, the two
  // senders (400 m apart) are mutually hidden while both reach node 1.
  // RTS/CTS + EIFS + exponential backoff must still let both progress.
  MacFixture f{{{0, 0}, {200, 0}, {400, 0}},
               MacParams{},
               topo::RadioRanges{250.0, 250.0}};
  ASSERT_FALSE(f.topo.inCsRange(0, 2));
  ASSERT_TRUE(f.topo.areNeighbors(1, 2));
  f.clients[0]->queuePackets(1, 100000, kPayload);
  f.clients[2]->queuePackets(1, 100000, kPayload);
  f.macs[0]->notifyTrafficPending();
  f.macs[2]->notifyTrafficPending();
  f.sim.runUntil(TimePoint::origin() + Duration::seconds(5.0));
  EXPECT_GT(f.clients[0]->successes, 200);
  EXPECT_GT(f.clients[2]->successes, 200);
}

TEST(Dcf, OverhearingNeighborsDecodeDataFrames) {
  // Node 2 is within tx range of node 0; it should overhear (decode) the
  // exchange without being addressed.
  MacFixture f{{{0, 0}, {200, 0}, {100, 150}}};
  ASSERT_LE(f.topo.distanceBetween(0, 2), 250.0);
  f.clients[0]->queuePackets(1, 1, kPayload);
  f.macs[0]->notifyTrafficPending();
  f.sim.runUntil(TimePoint::origin() + Duration::millis(100));
  EXPECT_EQ(f.clients[0]->successes, 1);
  bool sawData = false;
  for (const auto& fr : f.clients[2]->decoded) {
    if (fr.kind == phys::FrameKind::kData) sawData = true;
  }
  EXPECT_TRUE(sawData);
  EXPECT_TRUE(f.clients[2]->dataReceived.empty());  // not addressed
}

TEST(Dcf, NavPreventsThirdPartyInterruption) {
  // All nodes mutually in range. While 0<->1 exchange runs, node 2's
  // packet (arriving mid-exchange) must wait; both exchanges succeed.
  MacFixture f{{{0, 0}, {200, 0}, {100, 150}}};
  f.clients[0]->queuePackets(1, 1, kPayload);
  f.macs[0]->notifyTrafficPending();
  // Let the RTS go out, then offer node 2's traffic mid-exchange.
  f.sim.runUntil(TimePoint::origin() + Duration::micros(1500));
  f.clients[2]->queuePackets(0, 1, kPayload);
  f.macs[2]->notifyTrafficPending();
  f.sim.runUntil(TimePoint::origin() + Duration::millis(100));
  EXPECT_EQ(f.clients[0]->successes, 1);
  EXPECT_EQ(f.clients[2]->successes, 1);
}

TEST(Dcf, PiggybackedBufferStateRidesEveryFrameKind) {
  MacFixture f{{{0, 0}, {200, 0}}};
  f.clients[0]->ads = {{7, true}};
  f.clients[1]->ads = {{9, false}};
  f.clients[0]->queuePackets(1, 1, kPayload);
  f.macs[0]->notifyTrafficPending();
  f.sim.runUntil(TimePoint::origin() + Duration::millis(50));
  // Node 1 decoded RTS and DATA from 0, each carrying 0's ads.
  int withAds = 0;
  for (const auto& fr : f.clients[1]->decoded) {
    ASSERT_EQ(fr.bufferState.size(), 1u);
    EXPECT_EQ(fr.bufferState[0].destination, 7);
    EXPECT_TRUE(fr.bufferState[0].full);
    ++withAds;
  }
  EXPECT_EQ(withAds, 2);  // RTS + DATA
  // Node 0 decoded CTS and ACK from 1.
  int fromPeer = 0;
  for (const auto& fr : f.clients[0]->decoded) {
    ASSERT_EQ(fr.bufferState.size(), 1u);
    EXPECT_EQ(fr.bufferState[0].destination, 9);
    EXPECT_FALSE(fr.bufferState[0].full);
    ++fromPeer;
  }
  EXPECT_EQ(fromPeer, 2);  // CTS + ACK
}

TEST(Dcf, OccupancyAccruesFullExchangeAirtime) {
  MacFixture f{{{0, 0}, {200, 0}}};
  f.clients[0]->queuePackets(1, 10, kPayload);
  f.macs[0]->notifyTrafficPending();
  f.sim.runUntil(TimePoint::origin() + Duration::seconds(1.0));
  ASSERT_EQ(f.clients[0]->successes, 10);
  const MacParams p;
  const Duration airtime = f.macs[0]->takeOccupancy(1);
  const Duration perExchangeFrames =
      p.rtsDuration() + p.ctsDuration() + p.dataDuration(kPayload) +
      p.ackDuration();
  EXPECT_EQ(airtime.asMicros(), perExchangeFrames.asMicros() * 10);
  // Reset semantics.
  EXPECT_EQ(f.macs[0]->takeOccupancy(1).asMicros(), 0);
}


/// Control message used in broadcast tests.
struct TestMessage final : phys::ControlMessage {
  explicit TestMessage(int v) : value{v} {}
  int value;
};

TEST(Dcf, BroadcastReachesAllNeighborsWithoutAcks) {
  MacFixture f{{{0, 0}, {200, 0}, {100, 150}, {900, 0}}};
  f.macs[0]->enqueueBroadcast(std::make_shared<TestMessage>(42),
                              DataSize::bytes(32));
  f.sim.runUntil(TimePoint::origin() + Duration::millis(20));
  EXPECT_EQ(f.macs[0]->counters().broadcastsSent, 1u);
  // Nodes 1 and 2 (in range) decode the control frame; node 3 does not.
  for (int n : {1, 2}) {
    bool got = false;
    for (const auto& fr : f.clients[static_cast<std::size_t>(n)]->decoded) {
      if (fr.kind == phys::FrameKind::kControl) {
        const auto* msg = dynamic_cast<const TestMessage*>(fr.control.get());
        ASSERT_NE(msg, nullptr);
        EXPECT_EQ(msg->value, 42);
        got = true;
      }
    }
    EXPECT_TRUE(got) << "node " << n;
  }
  EXPECT_TRUE(f.clients[3]->decoded.empty());
  // No ACK traffic follows a broadcast.
  EXPECT_EQ(f.macs[1]->counters().rtsSent, 0u);
}

TEST(Dcf, BroadcastTakesPriorityOverPendingUnicast) {
  MacFixture f{{{0, 0}, {200, 0}}};
  f.clients[0]->queuePackets(1, 3, kPayload);
  f.macs[0]->notifyTrafficPending();
  f.macs[0]->enqueueBroadcast(std::make_shared<TestMessage>(7),
                              DataSize::bytes(32));
  f.sim.runUntil(TimePoint::origin() + Duration::millis(60));
  // Everything got through: 3 unicasts + the broadcast.
  EXPECT_EQ(f.clients[0]->successes, 3);
  EXPECT_EQ(f.macs[0]->counters().broadcastsSent, 1u);
  // The broadcast decoded at node 1 precedes at least the last DATA.
  std::size_t controlIdx = 0;
  std::size_t lastDataIdx = 0;
  for (std::size_t i = 0; i < f.clients[1]->decoded.size(); ++i) {
    const auto kind = f.clients[1]->decoded[i].kind;
    if (kind == phys::FrameKind::kControl) controlIdx = i;
    if (kind == phys::FrameKind::kData) lastDataIdx = i;
  }
  EXPECT_LT(controlIdx, lastDataIdx);
}

TEST(Dcf, CollidedBroadcastsAreLostSilently) {
  // Two hidden senders (cs = tx ranges) broadcast into a common
  // receiver at the same time: 802.11 broadcasts carry no recovery, so
  // at most the backoff stagger saves one of them; no retries happen.
  MacFixture f{{{0, 0}, {200, 0}, {400, 0}},
               MacParams{},
               topo::RadioRanges{250.0, 250.0}};
  f.macs[0]->enqueueBroadcast(std::make_shared<TestMessage>(1),
                              DataSize::bytes(1000));
  f.macs[2]->enqueueBroadcast(std::make_shared<TestMessage>(2),
                              DataSize::bytes(1000));
  f.sim.runUntil(TimePoint::origin() + Duration::millis(50));
  EXPECT_EQ(f.macs[0]->counters().broadcastsSent, 1u);
  EXPECT_EQ(f.macs[2]->counters().broadcastsSent, 1u);
  // Node 1 decodes 0, 1 or 2 control frames depending on overlap, but
  // never more (no retransmissions).
  int controls = 0;
  for (const auto& fr : f.clients[1]->decoded) {
    if (fr.kind == phys::FrameKind::kControl) ++controls;
  }
  EXPECT_LE(controls, 2);
}

// ---------------------------------------------------------------------------
// Parked radios
// ---------------------------------------------------------------------------

/// Every transmission start, delivery and corruption, in order.
class FrameLog final : public phys::MediumObserver {
 public:
  struct Entry {
    char what;  ///< 'S'tart, 'D'elivery, 'C'orruption
    TimePoint at;
    topo::NodeId transmitter;
    topo::NodeId node;  ///< addressee ('S') or receiver
    phys::FrameKind kind;
    bool operator==(const Entry&) const = default;
  };

  void onTransmissionStart(const phys::Frame& f, TimePoint at) override {
    entries.push_back({'S', at, f.transmitter, f.addressee, f.kind});
  }
  void onDelivery(const phys::Frame& f, topo::NodeId r, TimePoint at) override {
    entries.push_back({'D', at, f.transmitter, r, f.kind});
    // An overheard reservation: the receiver's NAV runs to here.
    if (f.addressee != r && f.navAfterEnd > Duration::zero()) {
      navExpiries[r].push_back(at + f.navAfterEnd);
    }
  }
  void onCorruption(const phys::Frame& f, topo::NodeId r,
                    TimePoint at) override {
    entries.push_back({'C', at, f.transmitter, r, f.kind});
    eifsExpiries[r].push_back(at + MacParams{}.eifs());
  }

  std::vector<Entry> entries;
  std::map<topo::NodeId, std::vector<TimePoint>> navExpiries;
  std::map<topo::NodeId, std::vector<TimePoint>> eifsExpiries;
};

enum class Work { kUnicast, kBroadcast, kOccupy };

constexpr topo::NodeId kIdleNode = 2;

/// Work handed to a node at `at`: queued before the kernel reaches the
/// node's NAV/EIFS wake at that instant, or (`afterWake`) after it. A
/// unicast goes to node 1 (node 1's to node 2); kOccupy reserves the
/// channel for `busyFor`.
struct Injection {
  TimePoint at;
  bool afterWake = false;
  Work work = Work::kUnicast;
  topo::NodeId node = kIdleNode;
  Duration busyFor = Duration::micros(300);
};

struct ParkRun {
  std::vector<FrameLog::Entry> frames;
  std::vector<DcfCounters> counters;
  std::uint64_t scheduled = 0;
  std::map<topo::NodeId, std::vector<TimePoint>> navExpiries;
  std::map<topo::NodeId, std::vector<TimePoint>> eifsExpiries;
};

/// Hidden terminals on a line, 200 m apart: 0 -> 1 and 4 -> 3 saturate
/// the channel; 0 and 4 (800 m) cannot sense each other. Node 2 decodes
/// 1 and 3 (NAV from their CTS/ACK) and senses everyone, so it loses
/// overlapping frames (EIFS). Nodes 1-3 send nothing of their own (1 and
/// 3 answer) unless `injections` give them work.
ParkRun runHiddenLine(bool parks, const std::vector<Injection>& injections) {
  MacFixture f{{{0, 0}, {200, 0}, {400, 0}, {600, 0}, {800, 0}},
               MacParams{},
               topo::RadioRanges{},
               parks};
  FrameLog log;
  f.medium.setObserver(&log);
  f.clients[0]->queuePackets(1, 100000, kPayload);
  f.clients[4]->queuePackets(3, 100000, kPayload);
  f.macs[0]->notifyTrafficPending();
  f.macs[4]->notifyTrafficPending();
  simtest::Posts posts{f.sim};
  for (const Injection& inj : injections) {
    auto give = [&f, inj] {
      const auto n = static_cast<std::size_t>(inj.node);
      switch (inj.work) {
        case Work::kUnicast:
          f.clients[n]->queuePackets(inj.node == 1 ? 2 : 1, 2, kPayload);
          f.macs[n]->notifyTrafficPending();
          break;
        case Work::kBroadcast:
          f.macs[n]->enqueueBroadcast(std::make_shared<TestMessage>(3),
                                      DataSize::bytes(64));
          break;
        case Work::kOccupy:
          f.macs[n]->occupyChannel(inj.busyFor);
          break;
      }
    };
    // Armed now, the injection runs before any wake reserved later for
    // the same instant; re-posted at that instant, after all of them.
    if (inj.afterWake) {
      posts.postAt(inj.at,
                   [&posts, give] { posts.post(Duration::zero(), give); });
    } else {
      posts.postAt(inj.at, give);
    }
  }
  f.sim.runUntil(TimePoint::origin() + Duration::millis(60));
  ParkRun run;
  run.frames = std::move(log.entries);
  for (const auto& mac : f.macs) run.counters.push_back(mac->counters());
  run.scheduled = f.sim.scheduledEvents();
  run.navExpiries = std::move(log.navExpiries);
  run.eifsExpiries = std::move(log.eifsExpiries);
  return run;
}

TEST(Dcf, ParkedRadiosMatchAlwaysListeningRadios) {
  // Both runs differ only in the clients' hasBacklog(): the default
  // (always true) never parks, the other parks every radio with nothing
  // queued. Work arriving at a parked radio exactly at its NAV or EIFS
  // expiry — before or after the wake it would have run then — must
  // produce the same frames and counters.
  const ParkRun plain = runHiddenLine(false, {});
  ASSERT_GT(plain.counters[0].txSuccesses, 10u);
  ASSERT_GT(plain.counters[2].eifsDeferrals, 5u);  // node 2 loses frames

  std::vector<Injection> injections;
  auto pick = [&injections](const std::vector<TimePoint>& expiries) {
    int taken = 0;
    for (const TimePoint t : expiries) {
      if (t < TimePoint::origin() + Duration::millis(5)) continue;
      if (taken++ == 3) break;
      for (const bool afterWake : {false, true}) {
        const auto work = static_cast<Work>(injections.size() % 3);
        injections.push_back({t, afterWake, work});
      }
    }
    return taken;
  };
  ASSERT_GE(pick(plain.navExpiries.at(kIdleNode)), 3);
  ASSERT_GE(pick(plain.eifsExpiries.at(kIdleNode)), 3);
  // Instants with no reservation ending: the radio may have sat idle
  // since an energy edge later than any NAV/EIFS expiry.
  std::vector<TimePoint> other;
  for (std::int64_t us = 6'317; us < 40'000; us += 2'903) {
    other.push_back(TimePoint::origin() + Duration::micros(us));
  }
  pick(other);

  const ParkRun parked = runHiddenLine(true, {});
  EXPECT_EQ(parked.frames, plain.frames);
  EXPECT_EQ(parked.counters, plain.counters);
  EXPECT_LT(parked.scheduled, plain.scheduled);

  for (const Injection& inj : injections) {
    SCOPED_TRACE(::testing::Message()
                 << "work " << static_cast<int>(inj.work) << " at "
                 << inj.at << (inj.afterWake ? " after" : " before")
                 << " the wake");
    const ParkRun a = runHiddenLine(false, {inj});
    const ParkRun b = runHiddenLine(true, {inj});
    if (inj.work != Work::kOccupy) {
      ASSERT_NE(a.frames, plain.frames);  // node 2 did transmit
    }
    EXPECT_EQ(b.frames, a.frames);
    EXPECT_EQ(b.counters, a.counters);
    EXPECT_LT(b.scheduled, a.scheduled);
  }
}

/// Phantom-burst episodes (the hybrid engine's occupyChannel, DESIGN.md
/// §16) at seeded random instants, at the idle node or a responder: a
/// burst; a second one overlapping it that ends before or after it, or
/// traffic while it lasts; and, at the first burst's end, before or after
/// the wake there, a third burst or traffic.
std::vector<Injection> burstEpisodes(std::uint64_t seed) {
  Rng rng{seed};
  auto coin = [&rng] { return rng.uniformInt(0, 1) == 1; };
  auto anyWork = [&rng] { return static_cast<Work>(rng.uniformInt(0, 2)); };
  std::vector<Injection> out;
  for (int episode = 0; episode < 16; ++episode) {
    const TimePoint t =
        TimePoint::origin() + Duration::micros(rng.uniformInt(5'000, 50'000));
    const auto node = static_cast<topo::NodeId>(rng.uniformInt(1, 3));
    const std::int64_t len = rng.uniformInt(50, 600);
    out.push_back({t, false, Work::kOccupy, node, Duration::micros(len)});
    const Duration overlapAt = Duration::micros(rng.uniformInt(1, len - 1));
    const Duration overlapLen = Duration::micros(rng.uniformInt(1, 2 * len));
    out.push_back({t + overlapAt, coin(), anyWork(), node, overlapLen});
    const Duration endLen = Duration::micros(rng.uniformInt(50, 600));
    out.push_back({t + Duration::micros(len), coin(), anyWork(), node, endLen});
  }
  return out;
}

TEST(Dcf, ParkedRadiosMatchAlwaysListeningRadiosUnderBursts) {
  // A parked radio that a burst reaches stays parked and only moves its
  // held wake; its frames, counters and every seq it draws must be the
  // listening radio's.
  const ParkRun quiet = runHiddenLine(false, {});
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const std::vector<Injection> script = burstEpisodes(seed);
    const ParkRun a = runHiddenLine(false, script);
    const ParkRun b = runHiddenLine(true, script);
    ASSERT_NE(a.frames, quiet.frames);  // the bursts moved the exchanges
    EXPECT_EQ(b.frames, a.frames);
    EXPECT_EQ(b.counters, a.counters);
    EXPECT_LT(b.scheduled, a.scheduled);
  }
}

TEST(Dcf, PhantomBurstLeavesParkedIdleRadioParked) {
  MacFixture f{{{0, 0}, {200, 0}}, MacParams{}, topo::RadioRanges{},
               /*parks=*/true};
  Dcf& mac = *f.macs[0];
  mac.notifyTrafficPending();  // nothing to send: the radio parks
  ASSERT_FALSE(f.medium.isListening(0));
  auto at = [](std::int64_t us) {
    return TimePoint::origin() + Duration::micros(us);
  };
  f.sim.runUntil(at(1000));
  const std::size_t pending = f.sim.pendingEvents();
  const std::uint64_t scheduled = f.sim.scheduledEvents();

  // No wake reserved: the burst reserves one for 1300 us and queues
  // nothing.
  mac.occupyChannel(Duration::micros(300));
  EXPECT_EQ(f.sim.pendingEvents(), pending);
  EXPECT_EQ(f.sim.scheduledEvents(), scheduled);
  EXPECT_FALSE(f.medium.isListening(0));
  EXPECT_TRUE(mac.channelBusy());
  EXPECT_EQ(mac.reservedUntil(), at(1300));

  // Inside the held wake: still nothing queued.
  f.sim.runUntil(at(1100));
  mac.occupyChannel(Duration::micros(200));
  EXPECT_EQ(f.sim.pendingEvents(), pending);
  EXPECT_FALSE(f.medium.isListening(0));

  // Beyond the held wake: the burst only moves the reservation to 1500 us.
  // The radio stays parked, and no wake runs at 1300 or 1500 us.
  mac.occupyChannel(Duration::micros(400));
  EXPECT_EQ(f.sim.pendingEvents(), pending);
  EXPECT_EQ(f.sim.scheduledEvents(), scheduled);
  EXPECT_FALSE(f.medium.isListening(0));
  EXPECT_EQ(mac.reservedUntil(), at(1500));
  const std::uint64_t executed = f.sim.executedEvents();
  f.sim.runUntil(at(2000));
  EXPECT_EQ(f.sim.executedEvents(), executed);
  EXPECT_FALSE(f.medium.isListening(0));
  EXPECT_EQ(f.sim.pendingEvents(), pending);
  EXPECT_FALSE(mac.channelBusy());

  // The reservation has passed: again nothing queued.
  mac.occupyChannel(Duration::micros(100));
  EXPECT_EQ(f.sim.pendingEvents(), pending);
  EXPECT_FALSE(f.medium.isListening(0));
  EXPECT_EQ(mac.reservedUntil(), at(2100));
}

/// A radio that only transmits what a test script tells it to.
class ScriptedRadio final : public phys::RadioListener {
 public:
  void onChannelBusy() override {}
  void onChannelIdle() override {}
  void onFrameReceived(const phys::Frame&) override {}
  void onFrameCorrupted(const phys::Frame&) override {}
  void onTxEnd() override {}
};

/// The last thing that kept node P busy before it is given work.
enum class Edge {
  kNav,     ///< a NAV from an overheard frame expires
  kEifs,    ///< an EIFS expires as a sensed frame ends
  kEnergy,  ///< a frame P only senses ended 20 us before
};

/// Node P (0) is given one packet for Q (1) at the instant its channel
/// view is hardest to rebuild. J (2) and K (3) are scripted radios: P
/// decodes J and only senses K.
///  * kNav: J's frame ends at 1100 us and P defers for its NAV (500 us).
///  * kEifs: K overlaps J's frame, so P loses it and defers EIFS, and
///    K's frame ends exactly when the EIFS expires.
///  * kEnergy: K sends twice, P parks after the first frame and the
///    second ends 20 us (< DIFS) before the work arrives.
/// The work is queued after the energy edge at that instant and before
/// P's wake there, or (`afterWake`) after the wake. At `jamAt` J starts
/// another frame, queued right after the work: when P's access timer is
/// due at that instant too, their order decides who transmits.
ParkRun runScriptedExpiry(bool parks, Edge edge, bool afterWake,
                          std::optional<TimePoint> jamAt) {
  constexpr topo::NodeId kP = 0, kQ = 1, kJ = 2, kK = 3;
  const MacParams params;
  sim::Simulator sim;
  const topo::Topology topo = topo::Topology::fromPositions(
      {{0, 0}, {200, 0}, {0, 200}, {-400, 0}}, topo::RadioRanges{});
  phys::Medium medium{sim, topo};
  FrameLog log;
  medium.setObserver(&log);
  StubClient p{kP, parks};
  StubClient q{kQ, parks};
  Rng root{7};
  Dcf macP{sim, medium, kP, p, params, root.fork()};
  Dcf macQ{sim, medium, kQ, q, params, root.fork()};
  ScriptedRadio j;
  ScriptedRadio k;
  medium.attachRadio(kJ, &j);
  medium.attachRadio(kK, &k);

  auto send = [&medium](topo::NodeId from, topo::NodeId to, Duration len,
                        Duration nav) {
    phys::Frame fr;
    fr.kind = phys::FrameKind::kRts;
    fr.transmitter = from;
    fr.addressee = to;
    fr.duration = len;
    fr.navAfterEnd = nav;
    medium.startTransmission(std::move(fr));
  };
  const TimePoint t0 = TimePoint::origin();
  auto at = [t0](std::int64_t us) { return t0 + Duration::micros(us); };
  const Duration hundred = Duration::micros(100);
  TimePoint workAt;
  simtest::Posts posts{sim};
  switch (edge) {
    case Edge::kNav:
      workAt = at(1600);
      posts.postAt(at(1000),
                   [&] { send(kJ, kK, hundred, Duration::micros(500)); });
      break;
    case Edge::kEifs:
      workAt = at(1100) + params.eifs();
      posts.postAt(at(1000), [&] { send(kJ, kK, hundred, Duration::zero()); });
      posts.postAt(at(1050), [&] {
        send(kK, kJ, workAt - at(1050), Duration::zero());
      });
      break;
    case Edge::kEnergy:
      workAt = at(1620);
      posts.postAt(at(1000), [&] { send(kK, kJ, hundred, Duration::zero()); });
      posts.postAt(at(1500), [&] { send(kK, kJ, hundred, Duration::zero()); });
      break;
  }
  auto work = [&] {
    p.queuePackets(kQ, 1, kPayload);
    macP.notifyTrafficPending();
    if (jamAt) {
      posts.postAt(*jamAt, [&] { send(kJ, kK, hundred, Duration::zero()); });
    }
  };
  // Queued at 1075 us: after K's first frame's end (queued at 1050 us)
  // and before P's wake (its position is reserved at 1100 us).
  posts.postAt(at(1075), [&] {
    if (afterWake) {
      posts.postAt(workAt, [&] { posts.post(Duration::zero(), work); });
    } else {
      posts.postAt(workAt, work);
    }
  });
  sim.runUntil(t0 + Duration::millis(20));
  ParkRun run;
  run.frames = std::move(log.entries);
  run.counters = {macP.counters(), macQ.counters()};
  run.scheduled = sim.scheduledEvents();
  return run;
}

TEST(Dcf, ParkedRadioRebuildsChannelStateAtExpiryInstants) {
  for (const Edge edge : {Edge::kNav, Edge::kEifs, Edge::kEnergy}) {
    for (const bool afterWake : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "edge " << static_cast<int>(edge) << ", work "
                   << (afterWake ? "after" : "before") << " the wake");
      // P's first RTS goes out on a backoff slot boundary; J jams exactly
      // that instant in the runs compared below.
      const ParkRun calib = runScriptedExpiry(false, edge, afterWake, {});
      std::optional<TimePoint> rts;
      for (const auto& e : calib.frames) {
        if (e.what == 'S' && e.transmitter == 0) {
          rts = e.at;
          break;
        }
      }
      ASSERT_TRUE(rts.has_value());
      const ParkRun a = runScriptedExpiry(false, edge, afterWake, rts);
      const ParkRun b = runScriptedExpiry(true, edge, afterWake, rts);
      EXPECT_EQ(b.frames, a.frames);
      EXPECT_EQ(b.counters, a.counters);
      EXPECT_EQ(a.counters[0].txSuccesses, 1u);
    }
  }
}

}  // namespace
}  // namespace maxmin::mac

