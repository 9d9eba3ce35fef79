#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <tuple>
#include <vector>

#include "baselines/configs.hpp"
#include "net/network.hpp"
#include "net/packet_queue.hpp"
#include "test_timers.hpp"

namespace maxmin::net {
namespace {

topo::Topology chainTopo(int n, double spacing = 200.0) {
  std::vector<topo::Point> pts;
  for (int i = 0; i < n; ++i) pts.push_back({spacing * i, 0.0});
  return topo::Topology::fromPositions(std::move(pts));
}

FlowSpec makeFlow(FlowId id, topo::NodeId src, topo::NodeId dst,
                  double weight = 1.0, double rate = 800.0) {
  FlowSpec f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.weight = weight;
  f.desiredRate = PacketRate::perSecond(rate);
  f.name = "f";  // appended, not "f" + ...: GCC 12 -O3 -Werror=restrict
  f.name += std::to_string(id);
  return f;
}

TEST(PacketQueue, FullAndFractionAccounting) {
  sim::Simulator s;
  PacketQueue q{2, s.now()};
  EXPECT_FALSE(q.full());
  auto p = std::make_shared<Packet>();
  q.pushBack(p, s.now());
  EXPECT_FALSE(q.full());
  s.runUntil(TimePoint::origin() + Duration::micros(100));
  q.pushBack(p, s.now());
  EXPECT_TRUE(q.full());
  s.runUntil(TimePoint::origin() + Duration::micros(300));
  q.popFront(s.now());
  EXPECT_FALSE(q.full());
  s.runUntil(TimePoint::origin() + Duration::micros(400));
  // Full from 100..300 out of 0..400.
  EXPECT_DOUBLE_EQ(q.fullFraction(TimePoint::origin(), s.now()), 0.5);
}

TEST(PacketQueue, PushFrontRestoresHead) {
  sim::Simulator s;
  PacketQueue q{4, s.now()};
  auto p1 = std::make_shared<Packet>();
  p1->seq = 1;
  auto p2 = std::make_shared<Packet>();
  p2->seq = 2;
  q.pushBack(p1, s.now());
  q.pushBack(p2, s.now());
  auto popped = q.popFront(s.now());
  EXPECT_EQ(popped->seq, 1);
  q.pushFront(popped, s.now());
  EXPECT_EQ(q.front()->seq, 1);
}

TEST(PacketQueue, OverwriteTailReplacesBack) {
  sim::Simulator s;
  PacketQueue q{2, s.now()};
  auto p1 = std::make_shared<Packet>();
  p1->seq = 1;
  auto p2 = std::make_shared<Packet>();
  p2->seq = 2;
  auto p3 = std::make_shared<Packet>();
  p3->seq = 3;
  q.pushBack(p1, s.now());
  q.pushBack(p2, s.now());
  q.overwriteTail(p3);
  EXPECT_EQ(q.size(), 2u);
  q.popFront(s.now());
  EXPECT_EQ(q.front()->seq, 3);
}

TEST(Network, SingleHopFlowDeliversAtDesiredRate) {
  NetworkConfig cfg;
  cfg.seed = 5;
  Network net{chainTopo(2), cfg, {makeFlow(0, 0, 1, 1.0, 100.0)}};
  net.run(Duration::seconds(10.0));
  // 100 pkt/s over 10 s with jittered generation: ~1000 packets.
  EXPECT_NEAR(static_cast<double>(net.delivered(0)), 1000.0, 60.0);
  EXPECT_EQ(net.totalQueueDrops(), 0);
}

TEST(Network, MultihopFlowTraversesChain) {
  NetworkConfig cfg;
  cfg.seed = 6;
  Network net{chainTopo(4), cfg, {makeFlow(0, 0, 3, 1.0, 50.0)}};
  net.run(Duration::seconds(10.0));
  EXPECT_EQ(net.hopCount(0), 3);
  EXPECT_NEAR(static_cast<double>(net.delivered(0)), 500.0, 50.0);
}

TEST(Network, RateLimitCapsSource) {
  NetworkConfig cfg;
  cfg.seed = 7;
  Network net{chainTopo(2), cfg, {makeFlow(0, 0, 1, 1.0, 400.0)}};
  net.setRateLimit(0, 50.0);
  net.run(Duration::seconds(10.0));
  EXPECT_NEAR(static_cast<double>(net.delivered(0)), 500.0, 50.0);
  // Removing the limit restores the desired rate.
  const auto before = net.snapshotDeliveries();
  net.setRateLimit(0, std::nullopt);
  net.run(Duration::seconds(5.0));
  const auto rates = Network::ratesBetween(before, net.snapshotDeliveries());
  EXPECT_NEAR(rates.at(0), 400.0, 40.0);
}

TEST(Network, BackpressureIsLosslessOnSaturatedChain) {
  // A saturated 3-hop chain: per-destination queueing + congestion
  // avoidance must not drop a single packet anywhere (paper §2.2).
  NetworkConfig cfg;
  cfg.seed = 8;
  Network net{chainTopo(4), cfg, {makeFlow(0, 0, 3, 1.0, 800.0)}};
  net.run(Duration::seconds(20.0));
  EXPECT_EQ(net.totalQueueDrops(), 0);
  EXPECT_GT(net.delivered(0), 1000);  // still flowing
  // Conservation: admitted = delivered + in flight (bounded by total
  // buffering: 3 relay queues + source queue + MAC).
  const auto& counters = net.stack(0).sourceCounters(0);
  const std::int64_t inFlight = counters.admitted - net.delivered(0);
  EXPECT_GE(inFlight, 0);
  EXPECT_LE(inFlight, 4 * cfg.queueCapacity + 4);
}

TEST(Network, SharedFifoBaselineDropsUnderOverload) {
  NetworkConfig cfg;
  cfg.discipline = QueueDiscipline::kSharedFifo;
  cfg.congestionAvoidance = false;
  cfg.sharedBufferCapacity = 50;
  cfg.seed = 9;
  Network net{chainTopo(4), cfg, {makeFlow(0, 0, 3, 1.0, 800.0)}};
  net.run(Duration::seconds(10.0));
  EXPECT_GT(net.totalQueueDrops(), 0);
  EXPECT_GT(net.delivered(0), 100);
}

TEST(Network, PerDestinationQueueIsolatesDestinations) {
  // Two flows from node 0: one to a congested 3-hop path, one to the
  // direct neighbor. With per-destination queues the short flow keeps its
  // full rate.
  NetworkConfig cfg;
  cfg.seed = 10;
  Network net{chainTopo(4),
              cfg,
              {makeFlow(0, 0, 3, 1.0, 800.0), makeFlow(1, 0, 1, 1.0, 100.0)}};
  net.run(Duration::seconds(12.0));
  const auto snapshotStart = net.snapshotDeliveries();
  net.run(Duration::seconds(8.0));
  const auto rates = Network::ratesBetween(snapshotStart, net.snapshotDeliveries());
  EXPECT_NEAR(rates.at(1), 100.0, 20.0);
}

TEST(Network, MeasurementWindowReportsRatesAndOmega) {
  NetworkConfig cfg;
  cfg.seed = 11;
  Network net{chainTopo(3), cfg, {makeFlow(0, 0, 2, 1.0, 800.0)}};
  net.setSourceMu(0, 123.0);
  net.run(Duration::seconds(4.0));
  // Node 1 relays: its measurement shows upstream from 0 and downstream
  // to dest 2.
  auto m1 = net.closeMeasurementWindow(1);
  EXPECT_EQ(m1.node, 1);
  EXPECT_NEAR(m1.periodSeconds, 4.0, 1e-9);
  ASSERT_TRUE(m1.upstream.contains({0, 2}));
  EXPECT_GT(m1.upstream.at({0, 2}).packets, 100);
  EXPECT_DOUBLE_EQ(m1.upstream.at({0, 2}).flowMu.at(0), 123.0);
  ASSERT_TRUE(m1.downstream.contains(2));
  EXPECT_GT(m1.downstream.at(2).packets, 100);

  // Source node: local flow rate present; saturated source queue -> the
  // chain is overloaded at 800 pkt/s so Omega should be substantial.
  auto m0 = net.closeMeasurementWindow(0);
  ASSERT_TRUE(m0.localFlowRate.contains(0));
  EXPECT_GT(m0.localFlowRate.at(0), 50.0);
  ASSERT_TRUE(m0.queueFullFraction.contains(2));
  EXPECT_GT(m0.queueFullFraction.at(2), 0.25);

  // Second window starts fresh.
  net.run(Duration::seconds(1.0));
  auto m1b = net.closeMeasurementWindow(1);
  EXPECT_NEAR(m1b.periodSeconds, 1.0, 1e-9);
}

TEST(Network, OmegaIsBimodal) {
  // The paper's §6.2 observation justifying the 25% threshold: when
  // upstream supplies more than the node can forward, Omega stays high;
  // when it supplies less, Omega is near zero.
  NetworkConfig cfg;
  cfg.seed = 12;
  {
    Network net{chainTopo(3), cfg, {makeFlow(0, 0, 2, 1.0, 800.0)}};
    net.run(Duration::seconds(8.0));
    net.closeMeasurementWindow(0);
    net.run(Duration::seconds(4.0));
    const auto m = net.closeMeasurementWindow(0);
    EXPECT_GT(m.queueFullFraction.at(2), 0.5) << "overloaded source queue";
  }
  {
    Network net{chainTopo(3), cfg, {makeFlow(0, 0, 2, 1.0, 50.0)}};
    net.run(Duration::seconds(8.0));
    net.closeMeasurementWindow(0);
    net.run(Duration::seconds(4.0));
    const auto m = net.closeMeasurementWindow(0);
    EXPECT_LT(m.queueFullFraction.at(2), 0.05) << "underloaded source queue";
  }
}

TEST(Network, ActiveLinksAndPaths) {
  NetworkConfig cfg;
  Network net{chainTopo(4),
              cfg,
              {makeFlow(0, 0, 3, 1.0, 10.0), makeFlow(1, 2, 3, 1.0, 10.0)}};
  EXPECT_EQ(net.pathOf(0), (std::vector<topo::NodeId>{0, 1, 2, 3}));
  const auto links = net.activeLinks();
  EXPECT_EQ(links, (std::vector<topo::Link>{{0, 1}, {1, 2}, {2, 3}}));
}

TEST(Network, ValidationRejectsBadFlows) {
  NetworkConfig cfg;
  EXPECT_THROW(
      (Network{chainTopo(2), cfg, {makeFlow(0, 0, 0, 1.0, 10.0)}}),
      InvariantViolation);
  EXPECT_THROW((Network{chainTopo(2), cfg,
                        {makeFlow(0, 0, 1, 1.0, 10.0),
                         makeFlow(0, 1, 0, 1.0, 10.0)}}),
               InvariantViolation);
  EXPECT_THROW(
      (Network{chainTopo(2), cfg, {makeFlow(0, 0, 1, -1.0, 10.0)}}),
      InvariantViolation);
}

TEST(Network, DisconnectedFlowRejected) {
  NetworkConfig cfg;
  auto t = topo::Topology::fromPositions({{0, 0}, {5000, 0}});
  EXPECT_THROW((Network{std::move(t), cfg, {makeFlow(0, 0, 1, 1.0, 10.0)}}),
               InvariantViolation);
}

TEST(Network, WeightsDoNotAffectPlainDelivery) {
  // Weights are a GMP concept; the substrate itself ignores them.
  NetworkConfig cfg;
  cfg.seed = 13;
  Network net{chainTopo(2), cfg,
              {makeFlow(0, 0, 1, 5.0, 100.0)}};
  net.run(Duration::seconds(5.0));
  EXPECT_NEAR(static_cast<double>(net.delivered(0)), 500.0, 50.0);
}


TEST(Network, StaleBufferAdvertisementExpiresAndSenderProceeds) {
  // Failed-overhearing recovery (§2.2): a cached "full" advertisement
  // only holds the sender for holdStateTimeout, after which it attempts
  // transmission anyway.
  NetworkConfig cfg;
  cfg.seed = 21;
  cfg.holdStateTimeout = Duration::millis(60);
  Network net{chainTopo(2), cfg, {makeFlow(0, 0, 1, 1.0, 200.0)}};

  // Fabricate an overheard frame from node 1 advertising a full queue
  // for destination 1.
  phys::Frame ad;
  ad.kind = phys::FrameKind::kAck;
  ad.transmitter = 1;
  ad.addressee = 0;
  ad.bufferState = {phys::BufferStateAd{1, true}};
  net.stack(0).onFrameDecoded(ad);

  // While the advertisement is fresh, nothing is sent.
  net.run(Duration::millis(40));
  EXPECT_EQ(net.delivered(0), 0);

  // After expiry the sender stops waiting and traffic flows.
  net.run(Duration::seconds(2.0));
  EXPECT_GT(net.delivered(0), 300);
}

TEST(Network, ClearedBufferAdvertisementUnblocksImmediately) {
  NetworkConfig cfg;
  cfg.seed = 22;
  cfg.holdStateTimeout = Duration::seconds(10.0);  // expiry out of reach
  Network net{chainTopo(2), cfg, {makeFlow(0, 0, 1, 1.0, 200.0)}};

  phys::Frame full;
  full.kind = phys::FrameKind::kAck;
  full.transmitter = 1;
  full.addressee = 0;
  full.bufferState = {phys::BufferStateAd{1, true}};
  net.stack(0).onFrameDecoded(full);
  net.run(Duration::millis(100));
  EXPECT_EQ(net.delivered(0), 0);

  phys::Frame clear = full;
  clear.bufferState = {phys::BufferStateAd{1, false}};
  net.stack(0).onFrameDecoded(clear);
  net.run(Duration::millis(500));
  EXPECT_GT(net.delivered(0), 50);
}

// Without congestion avoidance (the 802.11 and 2PP baselines) nothing
// reads neighbors' buffer state, so frames carry no ads and a decoded ad
// — even one clearing a "full" bit — is ignored: no cached state, no
// wake-up of the MAC. A 3-node chain where node 2 overhears node 1 is run
// twice, once with a full/clear ad pair injected at node 2 every 137 us;
// apart from the injection events the two runs must be identical.
TEST(Network, BufferStateAdsOnlyUnderCongestionAvoidance) {
  NetworkConfig base;
  base.seed = 25;
  for (const NetworkConfig& cfg :
       {baselines::config80211(base), baselines::config2pp(base)}) {
    auto runChain = [&cfg](bool injectAds) {
      Network net{chainTopo(3), cfg, {makeFlow(0, 0, 1, 1.0, 400.0)}};
      sim::Simulator& sim = net.simulator();
      std::uint64_t posted = 0;  // injection events
      std::function<void()> inject;
      simtest::LambdaTimer<> injector{sim, [&] { inject(); }};
      inject = [&] {
        phys::Frame ad;
        ad.kind = phys::FrameKind::kAck;
        ad.transmitter = 1;
        ad.addressee = 0;
        ad.bufferState = {phys::BufferStateAd{topo::kNoNode, true}};
        net.stack(2).onFrameDecoded(ad);
        ad.bufferState = {phys::BufferStateAd{topo::kNoNode, false}};
        net.stack(2).onFrameDecoded(ad);
        ++posted;
        injector.timer.arm(Duration::micros(137));
      };
      if (injectAds) {
        ++posted;
        injector.timer.arm(Duration::micros(137));
      }
      net.run(Duration::seconds(1.0));
      for (topo::NodeId n = 0; n < 3; ++n) {
        EXPECT_TRUE(net.stack(n).currentBufferState().empty()) << "node " << n;
      }
      std::vector<mac::DcfCounters> macs;
      for (topo::NodeId n = 0; n < 3; ++n) {
        macs.push_back(net.macOf(n).counters());
      }
      return std::tuple{sim.scheduledEvents() - posted,
                        sim.cancelledEvents(), net.delivered(0),
                        net.framesDelivered(), macs};
    };
    const auto plain = runChain(false);
    EXPECT_GT(std::get<2>(plain), 300);
    EXPECT_EQ(runChain(true), plain);
  }
}

TEST(Network, GmpBufferStateAdsInDestinationSlotOrder) {
  // Congestion avoidance on (GMP): one ad per destination queue this
  // node holds, in destination-slot order — they ride on every frame and
  // their order is part of the deterministic replay.
  NetworkConfig cfg = baselines::configGmp();
  cfg.seed = 26;
  Network net{chainTopo(5), cfg,
              {makeFlow(0, 0, 4), makeFlow(1, 0, 2), makeFlow(2, 0, 3),
               makeFlow(3, 0, 1)}};
  net.run(Duration::seconds(1.0));
  const std::vector<phys::BufferStateAd> ads =
      net.stack(0).currentBufferState();
  ASSERT_EQ(static_cast<int>(ads.size()), net.numDestinations());
  for (int slot = 0; slot < net.numDestinations(); ++slot) {
    EXPECT_EQ(ads[static_cast<std::size_t>(slot)].destination,
              net.destination(slot))
        << "slot " << slot;
  }
}

TEST(Network, DuplicateSuppressionAccountsForLostAcks) {
  // On a long saturated chain some ACKs collide, causing link-layer
  // retransmissions; duplicate suppression must keep end-to-end
  // delivery consistent with admission.
  NetworkConfig cfg;
  cfg.seed = 23;
  Network net{chainTopo(5), cfg, {makeFlow(0, 0, 4, 1.0, 800.0)}};
  net.run(Duration::seconds(30.0));
  std::int64_t dups = 0;
  for (topo::NodeId n = 0; n < 5; ++n) dups += net.stack(n).duplicatesDropped();
  const auto& counters = net.stack(0).sourceCounters(0);
  const std::int64_t inFlight = counters.admitted - net.delivered(0);
  EXPECT_GE(inFlight, 0) << "delivered more than admitted (missed duplicate)";
  EXPECT_LE(inFlight, 5 * cfg.queueCapacity + 5);
  EXPECT_EQ(net.totalQueueDrops(), 0);
  // The scenario actually exercises the duplicate path.
  EXPECT_GT(dups, 0);
}

TEST(Network, SourceCountersTrackBlockedGeneration) {
  NetworkConfig cfg;
  cfg.seed = 24;
  Network net{chainTopo(4), cfg, {makeFlow(0, 0, 3, 1.0, 800.0)}};
  net.run(Duration::seconds(10.0));
  const auto& c = net.stack(0).sourceCounters(0);
  EXPECT_GT(c.generatedAttempts, 7000);
  EXPECT_GT(c.blockedBySourceQueue, 1000);  // saturated: source gated
  EXPECT_EQ(c.admitted + c.blockedBySourceQueue, c.generatedAttempts);
}

}  // namespace
}  // namespace maxmin::net

