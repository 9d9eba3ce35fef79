// End-to-end robustness tests: GMP graceful degradation under node
// crashes, recovery, clock skew and bursty control-frame loss; the
// backpressure-liveness guarantee when a downstream neighbor dies; and
// the dissemination protocol's sequence-number hardening (wraparound,
// origin reboot).
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/disruption.hpp"
#include "analysis/experiment.hpp"
#include "baselines/configs.hpp"
#include "gmp/controller.hpp"
#include "gmp/dissemination.hpp"
#include "net/network.hpp"
#include "scenarios/scenarios.hpp"

namespace maxmin {
namespace {

net::Network makeGmpNetwork(const scenarios::Scenario& sc,
                            std::uint64_t seed,
                            net::NetworkConfig base = {}) {
  net::NetworkConfig cfg = baselines::configGmp(base);
  cfg.seed = seed;
  return net::Network{sc.topology, cfg, sc.flows};
}

// --- satellite: enabling the fault plane must not perturb seeded runs -------

TEST(FaultRngStreams, EnablingFaultsDoesNotPerturbSeededRuns) {
  const auto sc = scenarios::fig3();

  auto plain = makeGmpNetwork(sc, 21);
  plain.run(Duration::seconds(30.0));

  auto faulted = makeGmpNetwork(sc, 21);
  // The scripted event sits beyond the horizon: the plane is active (and
  // gates the medium) but nothing fires. Deliveries must be
  // bit-identical — the fault RNG is a named stream, not a fork that
  // would shift every node's randomness.
  faulted.enableFaults(sim::parseFaultScript("crash 1 100"));
  faulted.run(Duration::seconds(30.0));

  for (const auto& f : sc.flows) {
    EXPECT_EQ(plain.delivered(f.id), faulted.delivered(f.id))
        << "flow " << f.id;
  }
}

// --- crash semantics ---------------------------------------------------------

TEST(Crash, SilencesRadioAndFlushesQueues) {
  const auto sc = scenarios::fig3();
  auto net = makeGmpNetwork(sc, 9);
  net.enableFaults(sim::parseFaultScript("crash 1 10"));
  net.run(Duration::seconds(20.0));

  EXPECT_FALSE(net.stack(1).operational());
  EXPECT_GT(net.totalCrashDrops(), 0) << "queued packets vanish at a crash";
  EXPECT_GT(net.medium().framesSuppressed(), 0)
      << "frames to/from the dead node must be suppressed";
  const auto before = net.delivered(0);
  net.run(Duration::seconds(10.0));
  EXPECT_EQ(net.delivered(0), before)
      << "flow through the dead relay cannot deliver";
}

TEST(Crash, RecoveryRestartsSourcesAndForwarding) {
  const auto sc = scenarios::fig3();
  auto net = makeGmpNetwork(sc, 9);
  net.enableFaults(sim::parseFaultScript("crash 1 10; recover 1 20"));
  net.run(Duration::seconds(25.0));
  EXPECT_TRUE(net.stack(1).operational());
  const auto before = net.delivered(0);
  net.run(Duration::seconds(15.0));
  EXPECT_GT(net.delivered(0), before) << "deliveries resume after recovery";
}

// --- satellite: backpressure liveness with a dead downstream neighbor -------

TEST(BackpressureLiveness, UpstreamUnblocksAfterNeighborDeadTtl) {
  const auto sc = scenarios::fig3();
  net::NetworkConfig base;
  base.neighborDeadTtl = Duration::seconds(2.0);
  auto net = makeGmpNetwork(sc, 9, base);
  net.enableFaults(sim::parseFaultScript("crash 2 5"));

  net.run(Duration::seconds(15.0));
  EXPECT_TRUE(net.stack(1).neighborDead(2))
      << "after the TTL of consecutive failures node 1 declares 2 dead";
  const auto dropsMid = net.totalDeadNeighborDrops();
  EXPECT_GT(dropsMid, 0) << "upstream must drop instead of deadlocking";

  // Liveness: the upstream keeps draining (and reporting) rather than
  // holding the head-of-line packet forever.
  net.run(Duration::seconds(10.0));
  EXPECT_GT(net.totalDeadNeighborDrops(), dropsMid);
  EXPECT_EQ(net.totalQueueDrops(), 0)
      << "per-destination tail drops stay zero; only dead-next-hop drops";
}

TEST(BackpressureLiveness, NeighborRecoveryClearsDeadState) {
  const auto sc = scenarios::fig3();
  net::NetworkConfig base;
  base.neighborDeadTtl = Duration::seconds(2.0);
  auto net = makeGmpNetwork(sc, 9, base);
  net.enableFaults(sim::parseFaultScript("crash 2 5; recover 2 20"));

  net.run(Duration::seconds(18.0));
  ASSERT_TRUE(net.stack(1).neighborDead(2));
  net.run(Duration::seconds(12.0));
  EXPECT_FALSE(net.stack(1).neighborDead(2))
      << "a decoded frame or MAC success must revive the neighbor";
  const auto before = net.delivered(0);
  net.run(Duration::seconds(10.0));
  EXPECT_GT(net.delivered(0), before);
}

// --- satellite: dissemination sequence-number hardening ---------------------

net::Network makeIdleNetwork(const scenarios::Scenario& sc) {
  auto flows = sc.flows;
  for (auto& f : flows) f.desiredRate = PacketRate::perSecond(1.0);
  net::NetworkConfig cfg = baselines::configGmp({});
  cfg.seed = 31;
  return net::Network{sc.topology, cfg, flows};
}

TEST(DisseminationHardening, SerialComparisonHandlesWraparound) {
  using D = gmp::LinkStateDissemination;
  EXPECT_TRUE(D::seqNewer(1, 0));
  EXPECT_FALSE(D::seqNewer(0, 1));
  EXPECT_FALSE(D::seqNewer(5, 5));
  EXPECT_TRUE(D::seqNewer(0, D::kSeqModulus - 1));  // wrap
  EXPECT_TRUE(D::seqNewer(3, D::kSeqModulus - 2));
  EXPECT_FALSE(D::seqNewer(D::kSeqModulus - 1, 0));
}

TEST(DisseminationHardening, AnnouncementsSurviveSeqWraparound) {
  const auto sc = scenarios::fig3();
  auto net = makeIdleNetwork(sc);
  gmp::LinkStateDissemination diss{net};
  diss.setNextSeqForTest(1, gmp::LinkStateDissemination::kSeqModulus - 2);

  for (int round = 0; round < 4; ++round) {
    diss.announce(1, {{topo::Link{1, 2}, 10.0 * (round + 1), 0.1}});
    net.run(Duration::millis(50));
  }
  // The post-wrap announcements (seq 0, 1) supersede the pre-wrap ones
  // (seq 65534, 65535) at every receiver.
  EXPECT_DOUBLE_EQ(diss.knownStates(0).at(topo::Link{1, 2}).normRate, 40.0);
  EXPECT_DOUBLE_EQ(diss.knownStates(2).at(topo::Link{1, 2}).normRate, 40.0);
  EXPECT_EQ(diss.staleDropped(), 0);
}

TEST(DisseminationHardening, RebootedOriginReentersAfterFreshnessTtl) {
  const auto sc = scenarios::fig3();
  auto net = makeIdleNetwork(sc);
  gmp::LinkStateDissemination diss{net};
  diss.setFreshnessTtl(Duration::seconds(2.0));

  diss.setNextSeqForTest(1, 1000);
  diss.announce(1, {{topo::Link{1, 2}, 50.0, 0.5}});
  net.run(Duration::millis(100));
  ASSERT_DOUBLE_EQ(diss.knownStates(0).at(topo::Link{1, 2}).normRate, 50.0);

  // Origin reboots and restarts its counter. Its first announcement
  // carries seq 0 < 1000, arrives well inside the freshness TTL, and
  // must NOT overwrite the (possibly newer) stored state.
  diss.setNextSeqForTest(1, 0);
  diss.announce(1, {{topo::Link{1, 2}, 60.0, 0.6}});
  net.run(Duration::millis(100));
  EXPECT_DOUBLE_EQ(diss.knownStates(0).at(topo::Link{1, 2}).normRate, 50.0);
  EXPECT_GT(diss.staleDropped(), 0);

  // Once the stale high water mark has expired, the rebooted origin's
  // low sequence numbers are accepted again.
  net.run(Duration::seconds(2.5));
  diss.announce(1, {{topo::Link{1, 2}, 70.0, 0.7}});
  net.run(Duration::millis(100));
  EXPECT_DOUBLE_EQ(diss.knownStates(0).at(topo::Link{1, 2}).normRate, 70.0);
  EXPECT_GT(diss.rebootAccepts(), 0);
}

// --- controller degradation --------------------------------------------------

TEST(GmpDegradation, StaleNodeTriggersConservativeDecay) {
  const auto sc = scenarios::fig3();
  auto net = makeGmpNetwork(sc, 11);
  net.enableFaults(sim::parseFaultScript("crash 1 20"));
  gmp::Controller controller{net, gmp::GmpParams{}};
  controller.start();
  net.run(Duration::seconds(80.0));

  EXPECT_GT(controller.staleMeasurementsUsed(), 0)
      << "the cached measurement must bridge the TTL window first";
  const auto& snap = controller.lastSnapshot();
  EXPECT_TRUE(snap.staleNodes.contains(1));
  // Flows crossing node 1 (f1: 0->3, f2: 1->3) are impaired; f3 (2->3)
  // is not.
  EXPECT_TRUE(snap.impairedFlows.contains(0));
  EXPECT_TRUE(snap.impairedFlows.contains(1));
  EXPECT_FALSE(snap.impairedFlows.contains(2));
  EXPECT_GT(controller.lastReport().staleDecays, 0);

  // The impaired flows' limits have decayed to the floor instead of
  // freezing at the pre-fault equilibrium.
  const gmp::GmpParams params;
  ASSERT_TRUE(net.rateLimit(0).has_value());
  EXPECT_LE(*net.rateLimit(0), params.minRatePps + 1e-9);
}

TEST(GmpDegradation, ClockSkewStaggersPeriodClosesAndStillAdjusts) {
  const auto sc = scenarios::fig3();
  auto net = makeGmpNetwork(sc, 11);
  net.enableFaults(sim::parseFaultScript("skew 1 120; skew 2 60"));
  gmp::Controller controller{net, gmp::GmpParams{}};
  controller.start();
  net.run(Duration::seconds(100.0));

  EXPECT_GT(controller.skewedPeriods(), 0);
  EXPECT_GT(controller.periodsRun(), 20);
  EXPECT_EQ(net.totalQueueDrops(), 0);
  for (const auto& fs : controller.lastSnapshot().flows) {
    EXPECT_GT(fs.ratePps, 0.0) << "flow " << fs.id;
  }
}

TEST(GmpDegradation, RecoveryAtExactPeriodBoundaryDoesNotAbort) {
  // Recovery lands exactly on the 4 s period boundary: the node's fresh
  // measurement window is zero-length at the close that follows in the
  // same instant. Pre-fix this aborted assembleSnapshot ("empty
  // measurement window"); now the controller bridges the node with its
  // cached measurement for that one period.
  const auto sc = scenarios::fig3();
  auto net = makeGmpNetwork(sc, 11);
  net.enableFaults(sim::parseFaultScript("crash 1 6; recover 1 8"));
  gmp::Controller controller{net, gmp::GmpParams{}};
  controller.start();
  ASSERT_NO_THROW(net.run(Duration::seconds(21.0)));

  EXPECT_EQ(controller.periodsRun(), 5);
  EXPECT_EQ(controller.staleMeasurementsUsed(), 1)
      << "exactly the boundary period substitutes the cached measurement";
  EXPECT_TRUE(controller.lastSnapshot().staleNodes.empty())
      << "one bridged period must not leave the node stale";
  for (const auto& fs : controller.lastSnapshot().flows) {
    EXPECT_GT(fs.ratePps, 0.0) << "flow " << fs.id;
  }
}

TEST(GmpDegradation, ChurnedSourceFlowIsImpairedWhileBridged) {
  // Node 2 sources flow 2 and crashes mid-period. While its cached
  // measurement bridges the gap, the flow's "measured" rate is the
  // pre-crash localFlowRate reported as if live — the controller must
  // flag the flow impaired instead of letting the engine adjust on it.
  const auto sc = scenarios::fig3();
  auto net = makeGmpNetwork(sc, 11);
  net.enableFaults(sim::parseFaultScript("crash 2 6"));
  gmp::Controller controller{net, gmp::GmpParams{}};
  controller.start();
  net.run(Duration::seconds(9.0));  // two boundaries: t=4 clean, t=8 bridged

  EXPECT_EQ(controller.staleMeasurementsUsed(), 1);
  const auto& snap = controller.lastSnapshot();
  EXPECT_TRUE(snap.staleNodes.empty()) << "still within the TTL";
  EXPECT_TRUE(snap.impairedFlows.contains(2))
      << "flow sourced at the bridged node reports a ghost rate";
  EXPECT_FALSE(snap.impairedFlows.contains(0));
}

TEST(GmpDegradation, CachedMeasurementsArePrunedPastTtl) {
  const auto sc = scenarios::fig3();
  auto net = makeGmpNetwork(sc, 11);
  net.enableFaults(sim::parseFaultScript("crash 1 6"));
  gmp::Controller controller{net, gmp::GmpParams{}};
  controller.start();

  net.run(Duration::seconds(5.0));  // one clean period: everyone cached
  EXPECT_EQ(controller.cachedMeasurements(), 4u);
  net.run(Duration::seconds(12.0));  // t=17: node 1 unusable 3 periods > TTL 2
  EXPECT_EQ(controller.cachedMeasurements(), 3u)
      << "the dead node's cache must age out with the TTL";
  EXPECT_TRUE(controller.lastSnapshot().staleNodes.contains(1));
}

// --- partition-aware GMP (DESIGN.md §13) -------------------------------------

TEST(Partition, CutLinkQuarantinesSeveredFlowsOnly) {
  // Cutting link 1-2 on the Fig. 3 chain splits the alive graph into
  // {0,1} and {2,3}. Flows f1 (0->3) and f2 (1->3) cross the cut and
  // are quarantined; f3 (2->3) lives entirely in the far component and
  // must keep being adjusted normally.
  const auto sc = scenarios::fig3();
  auto net = makeGmpNetwork(sc, 11);
  net.enableFaults(sim::parseFaultScript("linkdown 1 2 6"));
  gmp::Controller controller{net, gmp::GmpParams{}};
  controller.start();
  net.run(Duration::seconds(13.0));

  const auto& snap = controller.lastSnapshot();
  EXPECT_EQ(snap.partitions, 2);
  EXPECT_TRUE(snap.quarantinedFlows.contains(0));
  EXPECT_TRUE(snap.quarantinedFlows.contains(1));
  EXPECT_FALSE(snap.quarantinedFlows.contains(2));
  EXPECT_TRUE(snap.impairedFlows.contains(0))
      << "quarantined flows are a subset of impaired flows";
  EXPECT_GT(controller.partitionedPeriods(), 0);
  EXPECT_GT(controller.flowsQuarantined(), 0);
  // The locally-consistent components: sources 0,1 on one side of the
  // cut, source 2 on the other.
  EXPECT_EQ(snap.flowPartition.at(0), snap.flowPartition.at(1));
  EXPECT_NE(snap.flowPartition.at(0), snap.flowPartition.at(2));
}

TEST(Partition, ReMergeLiftsQuarantineAndReconcilesLimits) {
  const auto sc = scenarios::fig3();
  auto net = makeGmpNetwork(sc, 11);
  net.enableFaults(sim::parseFaultScript("linkdown 1 2 6; linkup 1 2 18"));
  gmp::Controller controller{net, gmp::GmpParams{}};
  controller.start();
  net.run(Duration::seconds(40.0));

  const auto& snap = controller.lastSnapshot();
  EXPECT_EQ(snap.partitions, 1);
  EXPECT_TRUE(snap.quarantinedFlows.empty());
  // Reconciliation rides the existing restore machinery: the severed
  // flows' pre-fault limits came back when the partition healed.
  EXPECT_GT(controller.limitsRestored(), 0);
  const auto& history = controller.partitionHistory();
  ASSERT_FALSE(history.empty());
  EXPECT_EQ(history.size(), static_cast<std::size_t>(controller.periodsRun()));
}

TEST(Partition, NodeCrashDoesNotQuarantine) {
  // A crashed node splits the alive graph too, but its flows' paths are
  // structurally intact: staleness bridging (and, past the TTL, stale
  // decay) handles them. Quarantine keys on cut links alone, so flows
  // crossing the bridged node stay un-quarantined.
  const auto sc = scenarios::fig3();
  auto net = makeGmpNetwork(sc, 11);
  net.enableFaults(sim::parseFaultScript("crash 1 6"));
  gmp::Controller controller{net, gmp::GmpParams{}};
  controller.start();
  net.run(Duration::seconds(13.0));

  const auto& snap = controller.lastSnapshot();
  EXPECT_EQ(snap.partitions, 2) << "node 0 is severed from {2,3}";
  EXPECT_TRUE(snap.quarantinedFlows.empty());
}

// --- disruption analysis extensions ------------------------------------------

TEST(DisruptionExtensions, CoverageRestorationAndPerPartitionIeq) {
  // Synthetic 8-period run: two flows (1 hop each), fault at period 2,
  // coverage dips periods 2-3 and is back at period 4; the flows sit in
  // separate components during periods 2-4.
  analysis::RateHistory history;
  for (int p = 0; p < 8; ++p) {
    history.push_back({{0, 100.0}, {1, p == 2 ? 40.0 : 100.0}});
  }
  const std::map<net::FlowId, int> hops{{0, 1}, {1, 1}};

  analysis::DisruptionConfig cfg;
  cfg.faultPeriod = 2;
  cfg.recoveryPeriod = 4;
  cfg.coverageByPeriod = {1.0, 1.0, 0.75, 0.75, 1.0, 1.0, 1.0, 1.0};
  for (int p = 0; p < 8; ++p) {
    const bool split = p >= 2 && p <= 4;
    cfg.partitionHistory.push_back({{0, 0}, {1, split ? 1 : 0}});
  }

  const auto report = analysis::analyzeDisruption(history, hops, cfg);
  EXPECT_EQ(report.coverageRestoredAtPeriod, 4);
  EXPECT_EQ(report.periodsToCoverageRestoration, 2);
  // Component 0 always contains flow 0 (steady 100 pps): I_eq stays 1.
  ASSERT_TRUE(report.partitionIeqByPeriod.contains(0));
  ASSERT_TRUE(report.partitionIeqByPeriod.contains(1));
  for (const double ieq : report.partitionIeqByPeriod.at(1)) {
    EXPECT_DOUBLE_EQ(ieq, 1.0)
        << "a single-flow component is trivially locally consistent";
  }
  // During the split each component is fair in isolation even though the
  // global I_eq dips at period 2.
  EXPECT_LT(report.ieqByPeriod[2], 1.0);
  EXPECT_DOUBLE_EQ(report.partitionIeqByPeriod.at(0)[2], 1.0);

  // A run whose coverage never dips restores instantly.
  analysis::DisruptionConfig clean = cfg;
  clean.coverageByPeriod.assign(8, 1.0);
  const auto cleanReport = analysis::analyzeDisruption(history, hops, clean);
  EXPECT_EQ(cleanReport.periodsToCoverageRestoration, 0);
}

TEST(DisseminationHardening, RebootMidWraparoundIsSeriallyNewer) {
  // The origin crashes at seq 65534 and reboots with a zeroed counter.
  // Serial arithmetic makes seq 0 *newer* than 65534 (distance 2), so
  // the rebooted origin re-enters immediately — no freshness-TTL wait,
  // no rebootAccepts — exactly as if it had wrapped normally.
  const auto sc = scenarios::fig3();
  auto net = makeIdleNetwork(sc);
  gmp::LinkStateDissemination diss{net};

  diss.setNextSeqForTest(1, gmp::LinkStateDissemination::kSeqModulus - 2);
  diss.announce(1, {{topo::Link{1, 2}, 50.0, 0.5}});
  net.run(Duration::millis(100));
  ASSERT_DOUBLE_EQ(diss.knownStates(0).at(topo::Link{1, 2}).normRate, 50.0);

  diss.setNextSeqForTest(1, 0);  // reboot lost the counter mid-wrap
  diss.announce(1, {{topo::Link{1, 2}, 60.0, 0.6}});
  net.run(Duration::millis(100));
  EXPECT_DOUBLE_EQ(diss.knownStates(0).at(topo::Link{1, 2}).normRate, 60.0);
  EXPECT_EQ(diss.rebootAccepts(), 0)
      << "serially-newer reboot must not need the reboot path";
  EXPECT_EQ(diss.staleDropped(), 0);

  // A reboot landing in the serially-*older* half is the hard case: it
  // must wait out the freshness TTL like any stale sequence.
  diss.setFreshnessTtl(Duration::seconds(2.0));
  diss.setNextSeqForTest(1, 40000);
  diss.announce(1, {{topo::Link{1, 2}, 70.0, 0.7}});
  net.run(Duration::millis(100));
  EXPECT_DOUBLE_EQ(diss.knownStates(0).at(topo::Link{1, 2}).normRate, 60.0);
  EXPECT_GT(diss.staleDropped(), 0);
  net.run(Duration::seconds(2.5));
  diss.announce(1, {{topo::Link{1, 2}, 80.0, 0.8}});
  net.run(Duration::millis(100));
  EXPECT_DOUBLE_EQ(diss.knownStates(0).at(topo::Link{1, 2}).normRate, 80.0);
  EXPECT_GT(diss.rebootAccepts(), 0);
}

// --- the acceptance experiment ----------------------------------------------

TEST(GmpDegradation, Fig4CrashRecoveryWithBurstyControlLossReconverges) {
  // ISSUE acceptance: Fig. 4 + scripted mid-session relay crash and
  // recovery + ~20 % Gilbert-Elliott loss on control frames. GMP must
  // re-converge to I_eq >= 0.9 within 10 adjustment periods of the
  // recovery, with zero deadlocked queues.
  const auto sc = scenarios::fig4();

  analysis::RunConfig cfg;
  cfg.protocol = analysis::Protocol::kGmp;
  cfg.duration = Duration::seconds(400.0);
  cfg.warmup = Duration::seconds(200.0);
  cfg.seed = 7;
  cfg.faults = scenarios::midSessionRelayCrash(sc, Duration::seconds(120.0),
                                               Duration::seconds(40.0));
  cfg.netBase.impairments.gilbert.pGoodToBad = 0.05;
  cfg.netBase.impairments.gilbert.pBadToGood = 0.20;
  cfg.netBase.impairments.gilbert.lossBad = 1.0;
  cfg.netBase.impairments.scope =
      phys::ImpairmentConfig::Scope::kControlFrames;

  const auto result = analysis::runScenario(sc, cfg);

  std::map<net::FlowId, int> hops;
  for (const auto& f : result.flows) hops[f.id] = f.hops;
  analysis::DisruptionConfig dc;
  dc.faultPeriod = 30;     // crash at 120 s / 4 s periods
  dc.recoveryPeriod = 40;  // recovery at 160 s
  const auto report = analysis::analyzeDisruption(result.rateHistory, hops, dc);

  EXPECT_GT(report.baselineIeq, 0.9) << "pre-fault fairness must be healthy";
  EXPECT_LT(report.dipIeq, report.baselineIeq)
      << "the crash must actually disturb the allocation";
  ASSERT_GE(report.periodsToReconverge, 0) << "never re-converged";
  EXPECT_LE(report.periodsToReconverge, 10);
  EXPECT_GE(result.summary.ieq, 0.9)
      << "steady state after recovery must be fair";

  // Zero deadlocked queues: the lossless per-destination scheme never
  // tail-drops, and after recovery every flow is moving again.
  EXPECT_EQ(result.queueDrops, 0);
  ASSERT_FALSE(result.rateHistory.empty());
  for (const auto& [id, rate] : result.rateHistory.back()) {
    EXPECT_GT(rate, 0.0) << "flow " << id << " wedged after recovery";
  }
  EXPECT_GT(result.metrics.crashDrops, 0) << "the crash flushed the relay's queues";
  EXPECT_GT(result.metrics.staleMeasurementsUsed, 0);
  EXPECT_GT(result.metrics.limitsRestored, 0)
      << "recovery must restore pre-fault limits";
}

}  // namespace
}  // namespace maxmin
