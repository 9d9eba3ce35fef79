// Hybrid fluid/packet engine tests (DESIGN.md §16).
//
// Three layers of pinning:
//   * the fluid GMP fixed point against packet steady-state rates on
//     fig4 and a random mesh (the correctness anchor for everything the
//     hybrid engine injects);
//   * the substrate hooks (Dcf::occupyChannel busy windows, phantom
//     background load throttling a real flow, Controller::warmStart
//     seeding the measurement cache);
//   * the end-to-end hybrid modes against pure-packet runs, with the
//     tolerances DESIGN.md documents, plus exact fixed-seed determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/maxmin_solver.hpp"
#include "analysis/metrics.hpp"
#include "baselines/configs.hpp"
#include "fluid/fluid_gmp.hpp"
#include "fluid/fluid_network.hpp"
#include "gmp/controller.hpp"
#include "hybrid/background_load.hpp"
#include "mac/dcf.hpp"
#include "net/network.hpp"
#include "scenarios/scenarios.hpp"

namespace maxmin::hybrid {
namespace {

using analysis::Protocol;
using analysis::RunConfig;

/// Short-horizon GMP run config: long enough for the controller to
/// settle on these small scenarios, short enough for a test suite.
RunConfig shortRun() {
  RunConfig cfg;
  cfg.protocol = Protocol::kGmp;
  cfg.duration = Duration::seconds(200.0);
  cfg.warmup = Duration::seconds(80.0);
  cfg.seed = 7;
  return cfg;
}

double nominalCapacity() {
  const net::NetworkConfig nc = baselines::configGmp({});
  return nc.mac.nominalLinkCapacityPps(nc.packetSize);
}

/// A fluid state's rates keyed by flow id.
std::map<net::FlowId, double> ratesById(const fluid::FluidNetwork& net,
                                        const fluid::FluidState& state) {
  std::map<net::FlowId, double> out;
  for (std::size_t i = 0; i < net.flows().size(); ++i) {
    out[net.flows()[i].id] = state.rates[i];
  }
  return out;
}

/// Fluid fixed-point summary over the same metric pipeline the packet
/// runs use.
analysis::FairnessSummary fluidSummary(const fluid::FluidNetwork& net,
                                       const fluid::FluidState& state) {
  std::map<net::FlowId, int> hops;
  for (std::size_t i = 0; i < net.flows().size(); ++i) {
    hops[net.flows()[i].id] = static_cast<int>(net.paths()[i].size()) - 1;
  }
  return analysis::summarize(ratesById(net, state), hops);
}

// --- fluid solver pin ------------------------------------------------------

TEST(FluidPin, Fig4FixedPointTracksPacketSteadyState) {
  const auto sc = scenarios::fig4();
  const auto packet = analysis::runScenario(sc, shortRun());

  fluid::FluidNetwork fnet{sc.topology, sc.flows, nominalCapacity()};
  fluid::FluidGmpHarness harness{fnet, gmp::GmpParams{}};
  const auto fp = harness.runToFixedPoint(0.02, 400);
  EXPECT_TRUE(fp.converged) << "residual " << fp.residual;
  const auto state = fnet.evaluate();
  const auto fluidSum = fluidSummary(fnet, state);
  const auto rates = ratesById(fnet, state);

  // I_mm pins against the centralized maxmin reference, not the packet
  // run: the fluid world has no collision losses, so its min/max ratio
  // lands at the ideal value while the packet run's worst flow keeps a
  // collision handicap (the fluid idealization gap, DESIGN.md §16).
  const auto model =
      analysis::buildCliqueModel(sc.topology, sc.flows, nominalCapacity());
  const auto ideal = analysis::summarize(
      analysis::solveWeightedMaxmin(model),
      [&] {
        std::map<net::FlowId, int> hops;
        for (const auto& f : packet.flows) hops[f.id] = f.hops;
        return hops;
      }());
  EXPECT_NEAR(fluidSum.imm, ideal.imm, 0.05);
  EXPECT_GE(fluidSum.imm, packet.summary.imm - 0.05);
  EXPECT_NEAR(fluidSum.ieq, packet.summary.ieq, 0.05);
  // Per-flow against the packet run: the fluid share must stay within a
  // third of the packet rate (fig4's rates sit near capacity/3; the
  // fluid model runs a little hot).
  for (const auto& f : packet.flows) {
    EXPECT_NEAR(rates.at(f.id), f.ratePps, f.ratePps / 3.0)
        << "flow " << f.name;
  }
}

TEST(FluidPin, SmallMeshFixedPointTracksPacketSteadyState) {
  const auto sc = scenarios::randomMesh(11, 20, 1000.0, 8);
  const auto packet = analysis::runScenario(sc, shortRun());

  fluid::FluidNetwork fnet{sc.topology, sc.flows, nominalCapacity()};
  fluid::FluidGmpHarness harness{fnet, gmp::GmpParams{}};
  const auto fp = harness.runToFixedPoint(0.02, 400);
  EXPECT_TRUE(fp.converged) << "residual " << fp.residual;
  const auto fluidSum = fluidSummary(fnet, fnet.evaluate());

  // Meshes carry the fluid idealization gap (no hidden-terminal or EIFS
  // pathologies in the fluid world), so the fluid min/max ratio sits
  // well above the packet run's; it must never sit *below* it, and the
  // demand-proportional shape (I_eq) must still match.
  EXPECT_GE(fluidSum.imm, packet.summary.imm - 0.05);
  EXPECT_LE(fluidSum.imm, 1.0 + 1e-9);
  EXPECT_NEAR(fluidSum.ieq, packet.summary.ieq, 0.10);
}

TEST(FluidPin, FixedPointIsDeterministic) {
  const auto sc = scenarios::randomMesh(11, 20, 1000.0, 8);
  auto solve = [&] {
    fluid::FluidNetwork fnet{sc.topology, sc.flows, nominalCapacity()};
    fluid::FluidGmpHarness harness{fnet, gmp::GmpParams{}};
    const auto fp = harness.runToFixedPoint(0.02, 400);
    return std::pair{fp.periods, ratesById(fnet, fnet.evaluate())};
  };
  const auto [periodsA, ratesA] = solve();
  const auto [periodsB, ratesB] = solve();
  EXPECT_EQ(periodsA, periodsB);
  ASSERT_EQ(ratesA.size(), ratesB.size());
  for (const auto& [id, r] : ratesA) {
    EXPECT_EQ(r, ratesB.at(id)) << "flow " << id;  // bitwise, not NEAR
  }
}

// --- substrate hooks -------------------------------------------------------

TEST(DcfOccupancy, OccupyChannelOpensBusyWindow) {
  const auto topo = scenarios::chain(2).topology;
  net::Network net{topo, baselines::configGmp({}), {}};
  mac::Dcf& mac = net.macOf(0);
  EXPECT_FALSE(mac.channelBusy());

  mac.occupyChannel(Duration::micros(5000));
  EXPECT_TRUE(mac.channelBusy());
  EXPECT_EQ(mac.reservedUntil(), net.now() + Duration::micros(5000));

  net.run(Duration::micros(6000));
  EXPECT_FALSE(mac.channelBusy());
}

TEST(BackgroundLoadTest, PhantomOccupancyThrottlesForeground) {
  const auto sc = scenarios::chain(2);
  auto delivered = [&](double phantomPps) {
    net::Network net{sc.topology, baselines::configGmp({}), sc.flows};
    BackgroundLoad bg{net, Duration::micros(2000)};
    if (phantomPps > 0.0) {
      bg.addSender(1);  // receiver-side interferer; reach covers node 0
      bg.setSenderRate(1, phantomPps);
      bg.start();
    }
    net.run(Duration::seconds(20.0));
    bg.stop();
    if (phantomPps > 0.0) {
      EXPECT_GT(bg.burstsEmitted(), 0);
    }
    return net.delivered(0);
  };
  const auto unloaded = delivered(0.0);
  const auto loaded = delivered(250.0);  // 250 * 2 ms = 50% duty
  ASSERT_GT(unloaded, 0);
  // Half the airtime is gone; the flow must lose a big share of its
  // throughput but never starve (phantom senders defer to it too).
  EXPECT_LT(loaded, unloaded * 7 / 10);
  EXPECT_GT(loaded, unloaded / 5);
}

TEST(ControllerWarmStart, SeedsMeasurementCache) {
  const auto sc = scenarios::fig3();
  net::Network net{sc.topology, baselines::configGmp({}), sc.flows};
  gmp::Controller ctrl{net, gmp::GmpParams{}};
  EXPECT_EQ(ctrl.cachedMeasurements(), 0u);

  std::vector<net::NodePeriodMeasurement> seed;
  for (topo::NodeId n = 0; n < 4; ++n) {
    net::NodePeriodMeasurement m;
    m.node = n;
    m.periodSeconds = 4.0;
    seed.push_back(m);
  }
  ctrl.warmStart(seed);
  EXPECT_EQ(ctrl.cachedMeasurements(), 4u);
}

// --- end-to-end hybrid modes ----------------------------------------------

TEST(HybridRun, FastForwardMatchesPureWithinTolerance) {
  const auto sc = scenarios::fig4();
  const auto pure = analysis::runScenario(sc, shortRun());

  RunConfig cfg = shortRun();
  cfg.hybrid.fastForward = true;
  const auto ff = analysis::runScenario(sc, cfg);

  EXPECT_TRUE(ff.metrics.ffConverged);
  EXPECT_GT(ff.metrics.ffPeriods, 0);
  EXPECT_GT(ff.metrics.seededPackets, 0);
  EXPECT_NEAR(ff.summary.imm, pure.summary.imm, 0.05);
  EXPECT_NEAR(ff.summary.ieq, pure.summary.ieq, 0.02);
}

TEST(HybridRun, BackgroundMatchesPureOnFig4) {
  const auto sc = scenarios::fig4();
  const auto pure = analysis::runScenario(sc, shortRun());

  RunConfig cfg = shortRun();
  cfg.hybrid.fastForward = true;
  cfg.hybrid.background = true;
  cfg.hybrid.foreground = {0, 1};  // chain 0 stays packet-simulated
  const auto hyb = analysis::runScenario(sc, cfg);

  EXPECT_EQ(hyb.metrics.backgroundFlows, 6);
  EXPECT_GT(hyb.metrics.phantomBursts, 0);
  EXPECT_GT(hyb.metrics.relinearizations, 0);
  ASSERT_EQ(hyb.flows.size(), sc.flows.size());
  for (const auto& f : hyb.flows) {
    EXPECT_EQ(f.background, f.id != 0 && f.id != 1) << "flow " << f.name;
    EXPECT_GT(f.ratePps, 0.0) << "flow " << f.name;
  }
  EXPECT_NEAR(hyb.summary.imm, pure.summary.imm, 0.08);
  EXPECT_NEAR(hyb.summary.ieq, pure.summary.ieq, 0.02);
}

TEST(HybridRun, BackgroundMatchesPureOnSmallMesh) {
  const auto sc = scenarios::randomMesh(11, 20, 1000.0, 8);
  const auto pure = analysis::runScenario(sc, shortRun());

  RunConfig cfg = shortRun();
  cfg.hybrid.fastForward = true;
  cfg.hybrid.background = true;
  cfg.hybrid.foreground = {sc.flows[0].id, sc.flows[1].id};
  const auto hyb = analysis::runScenario(sc, cfg);

  // Mesh tolerance documented in DESIGN.md §16: the fluid background is
  // collision-free, so dense neighborhoods run a touch fairer.
  EXPECT_NEAR(hyb.summary.imm, pure.summary.imm, 0.12);
  EXPECT_NEAR(hyb.summary.ieq, pure.summary.ieq, 0.05);
}

TEST(HybridRun, FixedSeedRepeatIsExact) {
  const auto sc = scenarios::fig4();
  RunConfig cfg = shortRun();
  cfg.duration = Duration::seconds(60.0);
  cfg.warmup = Duration::seconds(20.0);
  cfg.hybrid.fastForward = true;
  cfg.hybrid.background = true;
  cfg.hybrid.foreground = {0, 1};

  const auto a = analysis::runScenario(sc, cfg);
  const auto b = analysis::runScenario(sc, cfg);
  EXPECT_EQ(a.summary.imm, b.summary.imm);
  EXPECT_EQ(a.summary.ieq, b.summary.ieq);
  EXPECT_EQ(a.metrics.phantomBursts, b.metrics.phantomBursts);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].ratePps, b.flows[i].ratePps)
        << "flow " << a.flows[i].name;
  }
}

}  // namespace
}  // namespace maxmin::hybrid
