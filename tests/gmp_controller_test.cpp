// Unit tests for gmp::Controller: snapshot assembly from live
// measurements, link classification against known network states, and
// lifecycle behavior. (Full convergence behavior is covered by
// gmp_integration_test.)
#include <gtest/gtest.h>

#include "baselines/configs.hpp"
#include "gmp/controller.hpp"
#include "net/network.hpp"
#include "scenarios/scenarios.hpp"

namespace maxmin::gmp {
namespace {

net::NetworkConfig gmpConfig(std::uint64_t seed) {
  net::NetworkConfig cfg = baselines::configGmp({});
  cfg.seed = seed;
  return cfg;
}

TEST(Controller, RequiresPerDestinationQueueing) {
  const auto sc = scenarios::fig3();
  net::NetworkConfig cfg = baselines::config80211({});
  net::Network net{sc.topology, cfg, sc.flows};
  EXPECT_THROW((Controller{net, GmpParams{}}), InvariantViolation);
}

TEST(Controller, RequiresCongestionAvoidance) {
  const auto sc = scenarios::fig3();
  net::NetworkConfig cfg = baselines::configGmp({});
  cfg.congestionAvoidance = false;
  net::Network net{sc.topology, cfg, sc.flows};
  EXPECT_THROW((Controller{net, GmpParams{}}), InvariantViolation);
}

TEST(Controller, SnapshotContainsEveryFlowAndVirtualLink) {
  const auto sc = scenarios::fig3();
  net::Network net{sc.topology, gmpConfig(41), sc.flows};
  Controller ctrl{net, GmpParams{}};
  net.run(Duration::seconds(4.0));
  const Snapshot snap = ctrl.takeSnapshot();

  EXPECT_EQ(snap.flows.size(), 3u);
  // Virtual links: union over flow paths in the dest-3 virtual network.
  std::set<VirtualLinkKey> keys;
  for (const auto& vl : snap.vlinks) keys.insert(vl.key);
  EXPECT_TRUE(keys.contains(VirtualLinkKey{0, 1, 3}));
  EXPECT_TRUE(keys.contains(VirtualLinkKey{1, 2, 3}));
  EXPECT_TRUE(keys.contains(VirtualLinkKey{2, 3, 3}));
  EXPECT_EQ(snap.wlinks.size(), 3u);
  // Every on-path virtual node has a saturation entry.
  EXPECT_EQ(snap.saturated.size(), 3u);
  for (topo::NodeId n : {0, 1, 2}) {
    EXPECT_GE(snap.vnet->vnodeId(n, 3), 0) << "node " << n;
  }
}

TEST(Controller, SaturatedChainYieldsPaperClassification) {
  // All sources at 800 pkt/s: node 0..2 queues saturate. The last link
  // (2,3) is bandwidth-saturated (its receiver is the sink), upstream
  // links are buffer-saturated.
  const auto sc = scenarios::fig3();
  net::Network net{sc.topology, gmpConfig(42), sc.flows};
  Controller ctrl{net, GmpParams{}};
  net.run(Duration::seconds(8.0));
  const Snapshot snap = ctrl.takeSnapshot();
  for (const auto& vl : snap.vlinks) {
    if (vl.key.to == 3) {
      EXPECT_EQ(vl.type, LinkType::kBandwidthSaturated) << vl.key;
    } else {
      EXPECT_EQ(vl.type, LinkType::kBufferSaturated) << vl.key;
    }
    EXPECT_GT(vl.ratePps, 0.0) << vl.key;
  }
}

TEST(Controller, UnderloadedNetworkIsUnsaturatedAndQuiet) {
  auto sc = scenarios::fig3();
  for (auto& f : sc.flows) f.desiredRate = PacketRate::perSecond(10.0);
  net::Network net{sc.topology, gmpConfig(43), sc.flows};
  Controller ctrl{net, GmpParams{}};
  ctrl.start();
  net.run(Duration::seconds(20.0));
  EXPECT_EQ(ctrl.periodsRun(), 5);
  for (int v : ctrl.violationHistory()) EXPECT_EQ(v, 0);
  for (const auto& vl : ctrl.lastSnapshot().vlinks) {
    EXPECT_EQ(vl.type, LinkType::kUnsaturated) << vl.key;
  }
  // No flow acquired a rate limit.
  for (const auto& f : sc.flows) {
    EXPECT_FALSE(net.rateLimit(f.id).has_value());
  }
}

TEST(Controller, OccupancyReflectsAirtimeShares) {
  const auto sc = scenarios::fig3();
  net::Network net{sc.topology, gmpConfig(44), sc.flows};
  Controller ctrl{net, GmpParams{}};
  net.run(Duration::seconds(8.0));
  const Snapshot snap = ctrl.takeSnapshot();
  double total = 0.0;
  for (const auto& wl : snap.wlinks) {
    EXPECT_GE(wl.occupancy, 0.0);
    EXPECT_LE(wl.occupancy, 1.0);
    total += wl.occupancy;
  }
  // The chain is one clique and saturated: combined airtime is a large
  // fraction of the channel (frames only; gaps excluded).
  EXPECT_GT(total, 0.5);
  EXPECT_LT(total, 1.1);
}

TEST(Controller, RateAndViolationHistoriesGrowPerPeriod) {
  const auto sc = scenarios::fig3();
  net::Network net{sc.topology, gmpConfig(45), sc.flows};
  Controller ctrl{net, GmpParams{}};
  ctrl.start();
  net.run(Duration::seconds(16.0));
  EXPECT_EQ(ctrl.periodsRun(), 4);
  EXPECT_EQ(ctrl.violationHistory().size(), 4u);
  ASSERT_EQ(ctrl.rateHistory().size(), 4u);
  for (const auto& period : ctrl.rateHistory()) {
    EXPECT_EQ(period.size(), 3u);
  }
}

TEST(Controller, StopHaltsAdjustment) {
  const auto sc = scenarios::fig3();
  net::Network net{sc.topology, gmpConfig(46), sc.flows};
  Controller ctrl{net, GmpParams{}};
  ctrl.start();
  net.run(Duration::seconds(8.0));
  ctrl.stop();
  const int periods = ctrl.periodsRun();
  net.run(Duration::seconds(8.0));
  EXPECT_EQ(ctrl.periodsRun(), periods);
}

TEST(Controller, PrimaryFlowsCarryTheLargestNormalizedRate) {
  // Give one flow a head start through a tighter limit on the others;
  // after a measurement period the shared links' primary flow must be
  // the unlimited (faster) one.
  const auto sc = scenarios::fig3();
  net::Network net{sc.topology, gmpConfig(47), sc.flows};
  Controller ctrl{net, GmpParams{}};
  net.setRateLimit(0, 20.0);
  net.setRateLimit(1, 20.0);
  // Flow 2 unlimited: its mu will dominate on (2,3).
  net.run(Duration::seconds(4.0));
  ctrl.takeSnapshot();  // seed source mu values... (stamped next period)
  net.run(Duration::seconds(4.0));
  const Snapshot snap = ctrl.takeSnapshot();
  for (const auto& vl : snap.vlinks) {
    if (vl.key.from == 2) {
      ASSERT_FALSE(vl.primaryFlows.empty());
      EXPECT_EQ(vl.primaryFlows[0], 2) << vl.key;
    }
  }
}

}  // namespace
}  // namespace maxmin::gmp
