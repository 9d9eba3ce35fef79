#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <string>

#include "analysis/maxmin_solver.hpp"
#include "fluid/fluid_gmp.hpp"
#include "fluid/fluid_network.hpp"
#include "mac/params.hpp"
#include "scenarios/scenarios.hpp"
#include "util/hash.hpp"

namespace maxmin::fluid {
namespace {

constexpr double kCapacity = 580.0;

net::FlowSpec flow(net::FlowId id, topo::NodeId src, topo::NodeId dst,
                   double weight = 1.0, double desired = 800.0) {
  net::FlowSpec f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.weight = weight;
  f.desiredRate = PacketRate::perSecond(desired);
  return f;
}

/// A state's rates keyed by flow id, for the analysis:: reference models.
std::map<net::FlowId, double> ratesById(const FluidNetwork& net,
                                        const FluidState& state) {
  std::map<net::FlowId, double> out;
  for (std::size_t i = 0; i < net.flows().size(); ++i) {
    out[net.flows()[i].id] = state.rates[i];
  }
  return out;
}

topo::Topology chainTopo(int n) {
  std::vector<topo::Point> pts;
  for (int i = 0; i < n; ++i) pts.push_back({200.0 * i, 0.0});
  return topo::Topology::fromPositions(std::move(pts));
}

TEST(FluidNetwork, UnconstrainedFlowRunsAtOfferedRate) {
  FluidNetwork net{chainTopo(2), {flow(0, 0, 1, 1.0, 100.0)}, kCapacity};
  const auto state = net.evaluate();
  EXPECT_NEAR(state.rates.at(0), 100.0, 1e-9);
  EXPECT_EQ(std::ranges::count(state.saturated, 1), 0);
  const int link = net.contention().linkIndex({0, 1});
  ASSERT_GE(link, 0);
  EXPECT_NEAR(state.occupancy.at(static_cast<std::size_t>(link)),
              100.0 / kCapacity, 1e-9);
}

TEST(FluidNetwork, RateLimitApplies) {
  FluidNetwork net{chainTopo(2), {flow(0, 0, 1)}, kCapacity};
  net.setRateLimit(0, 50.0);
  EXPECT_NEAR(net.evaluate().rates.at(0), 50.0, 1e-9);
  net.setRateLimit(0, std::nullopt);
  EXPECT_NEAR(net.evaluate().rates.at(0), kCapacity, 1e-6);
}

TEST(FluidNetwork, SingleCliqueSharesProportionally) {
  // Two single-hop flows in one clique offering 800 each: the scaler
  // splits capacity in proportion to demand (equal here).
  FluidNetwork net{chainTopo(3), {flow(0, 0, 1), flow(1, 1, 2)}, kCapacity};
  const auto state = net.evaluate();
  EXPECT_NEAR(state.rates.at(0), kCapacity / 2, 1e-6);
  EXPECT_NEAR(state.rates.at(1), kCapacity / 2, 1e-6);
}

TEST(FluidNetwork, MultihopFlowConsumesPerHopAirtime) {
  // One 3-hop flow in a single clique: rate = capacity / 3.
  FluidNetwork net{chainTopo(4), {flow(0, 0, 3)}, kCapacity};
  EXPECT_NEAR(net.evaluate().rates.at(0), kCapacity / 3, 1e-6);
}

TEST(FluidNetwork, BackpressureChainMarksSaturation) {
  FluidNetwork net{chainTopo(4), {flow(0, 0, 3)}, kCapacity};
  const auto state = net.evaluate();
  // The flow is constrained; its source is saturated.
  const int source = net.virtualNetwork()->vnodeId(0, 3);
  ASSERT_GE(source, 0);
  EXPECT_EQ(state.saturated.at(static_cast<std::size_t>(source)), 1);
}

TEST(FluidNetwork, CliqueLoadsAreFeasibleAfterScaling) {
  const auto sc = scenarios::fig4();
  FluidNetwork net{sc.topology, sc.flows, kCapacity};
  const auto state = net.evaluate();
  // Check feasibility through the reference model.
  const auto model =
      analysis::buildCliqueModel(sc.topology, sc.flows, kCapacity);
  EXPECT_TRUE(analysis::isFeasible(model, ratesById(net, state), 1e-3));
}

// Reusing another network's contention structure (the hybrid engine's
// fast-forward) must solve exactly like building it afresh, and a
// structure over a different link set is refused.
TEST(FluidNetwork, ReusedContentionStructureMatchesFreshBuild) {
  const auto sc = scenarios::fig4();
  FluidNetwork fresh{sc.topology, sc.flows, kCapacity};
  FluidNetwork reused{sc.topology, sc.flows, kCapacity, fresh.contention()};
  EXPECT_EQ(reused.contention().links, fresh.contention().links);
  // Same state with and without a rate limit and external occupancy, so
  // per-link occupancy and the backpressure chain are compared too.
  for (int pass = 0; pass < 2; ++pass) {
    const FluidState a = fresh.evaluate();
    const FluidState b = reused.evaluate();
    EXPECT_EQ(b.rates, a.rates);
    EXPECT_EQ(b.occupancy, a.occupancy);
    EXPECT_EQ(b.saturated, a.saturated);
    EXPECT_FALSE(a.occupancy.empty());
    for (FluidNetwork* net : {&fresh, &reused}) {
      net->setRateLimit(sc.flows.front().id, 40.0);
      net->setExternalOccupancy(net->contention().links.front(), 0.25);
    }
  }

  const std::vector<net::FlowSpec> fewer{sc.flows.begin(),
                                         sc.flows.begin() + 2};
  EXPECT_THROW(
      (FluidNetwork{sc.topology, fewer, kCapacity, fresh.contention()}),
      InvariantViolation);
}

// --- FluidGmpHarness ---------------------------------------------------------

TEST(FluidGmp, ConvergesToEqualityOnFig3) {
  const auto sc = scenarios::fig3();
  FluidNetwork net{sc.topology, sc.flows, kCapacity};
  FluidGmpHarness harness{net, gmp::GmpParams{}};
  const auto rates = harness.run(120);
  // Maxmin on the chain: all three flows equal at capacity/6.
  const double expected = kCapacity / 6.0;
  for (const auto& [id, r] : rates) {
    EXPECT_NEAR(r, expected, expected * 0.25) << "flow " << id;
  }
  // Violations must have died out.
  const auto& hist = harness.violationHistory();
  const int tail = std::accumulate(hist.end() - 10, hist.end(), 0);
  EXPECT_LE(tail, 4);
}

// The harness's snapshots are laid out by the network's own
// VirtualNetwork (not a second copy), and the fluid backpressure chain
// crosses into the snapshot unchanged.
TEST(FluidGmp, SnapshotsShareTheNetworksVirtualNetwork) {
  const auto sc = scenarios::fig4();
  FluidNetwork net{sc.topology, sc.flows, kCapacity};
  FluidGmpHarness harness{net, gmp::GmpParams{}};
  int saturatedPeriods = 0;
  for (int p = 0; p < 20; ++p) {
    // step() evaluates under the same limits before it applies its
    // commands, so this is the state its snapshot was built from.
    const FluidState state = net.evaluate();
    harness.step();
    const gmp::Snapshot& snap = harness.lastSnapshot();
    ASSERT_EQ(snap.vnet, net.virtualNetwork()) << "period " << p;
    ASSERT_EQ(state.saturated.size(), snap.vnet->vnodes.size());
    EXPECT_EQ(state.saturated, snap.saturated) << "period " << p;
    if (std::ranges::count(snap.saturated, 1) > 0) ++saturatedPeriods;
  }
  EXPECT_GT(saturatedPeriods, 0);
}

TEST(FluidGmp, Fig2EqualWeightsShape) {
  const auto sc = scenarios::fig2();
  FluidNetwork net{sc.topology, sc.flows, kCapacity};
  FluidGmpHarness harness{net, gmp::GmpParams{}};
  const auto rates = harness.run(150);
  // Paper Table 1 shape: f2 ~ f3 ~ f4, f1 clearly larger.
  EXPECT_GT(rates.at(0), 1.5 * rates.at(1));
  EXPECT_NEAR(rates.at(2), rates.at(1), rates.at(1) * 0.3);
  EXPECT_NEAR(rates.at(3), rates.at(1), rates.at(1) * 0.3);
}

TEST(FluidGmp, Fig2WeightedShape) {
  const auto sc = scenarios::fig2({1, 2, 1, 3});
  FluidNetwork net{sc.topology, sc.flows, kCapacity};
  FluidGmpHarness harness{net, gmp::GmpParams{}};
  const auto rates = harness.run(150);
  // Normalized rates of the clique-1 flows approximately equal.
  const double mu2 = rates.at(1) / 2.0;
  const double mu3 = rates.at(2) / 1.0;
  const double mu4 = rates.at(3) / 3.0;
  EXPECT_NEAR(mu3, mu2, mu2 * 0.35);
  EXPECT_NEAR(mu4, mu2, mu2 * 0.35);
  // f1 opportunistically exceeds its weight share.
  EXPECT_GT(rates.at(0), rates.at(1));
}

/// Every period of a fixed-point run, hashed: the commands (flow, kind,
/// limit bits) and the snapshot's vlink types and primary flows. The run
/// length comes from runToFixedPoint; a second harness replays that many
/// steps so each period's report and snapshot can be read.
struct PinnedStream {
  int periods = 0;
  std::uint64_t hash = 0;
};

PinnedStream fixedPointStream(const scenarios::Scenario& sc) {
  const double cap =
      mac::MacParams{}.nominalLinkCapacityPps(DataSize::bytes(1000));
  FluidNetwork probeNet{sc.topology, sc.flows, cap};
  FluidGmpHarness probe{probeNet, gmp::GmpParams{}};
  const int periods = probe.runToFixedPoint(0.02, 400).periods;

  FluidNetwork net{sc.topology, sc.flows, cap};
  FluidGmpHarness harness{net, gmp::GmpParams{}};
  std::string bytes;
  const auto put = [&bytes](std::uint64_t word) {
    bytes.append(reinterpret_cast<const char*>(&word), sizeof word);
  };
  for (int p = 0; p < periods; ++p) {
    for (const gmp::Command& c : harness.step().commands) {
      put(static_cast<std::uint64_t>(c.flow));
      put(static_cast<std::uint64_t>(c.kind));
      put(std::bit_cast<std::uint64_t>(c.limitPps));
    }
    for (const gmp::VLinkState& vl : harness.lastSnapshot().vlinks) {
      put(static_cast<std::uint64_t>(vl.type));
      for (const net::FlowId id : vl.primaryFlows) {
        put(static_cast<std::uint64_t>(id));
      }
      put(~std::uint64_t{0});
    }
  }
  return {periods, fnv1a(bytes)};
}

TEST(FluidGmp, FixedPointStreamIsPinned) {
  // bench_fluid's sweepMesh(500) and dense800_hybrid's flow count.
  const PinnedStream mesh = fixedPointStream(
      scenarios::randomMesh(11, 500, scenarios::meshSideForDegree(500, 8),
                            50));
  EXPECT_EQ(mesh.periods, 16);
  EXPECT_EQ(mesh.hash, 0x9edc20d09ff7a99cull) << std::hex << mesh.hash;
  const PinnedStream dense =
      fixedPointStream(scenarios::denseMesh(1, 800, 100));
  EXPECT_EQ(dense.periods, 15);
  EXPECT_EQ(dense.hash, 0x14825a8acd157708ull) << std::hex << dense.hash;
}

/// Property: on random meshes, the engine driven by the fluid substrate
/// converges to rates close to the centralized weighted maxmin solution.
class FluidGmpPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FluidGmpPropertyTest, ConvergesNearCentralizedMaxmin) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto sc = scenarios::randomMesh(seed, 10, 900.0, 4);
  FluidNetwork net{sc.topology, sc.flows, kCapacity};
  FluidGmpHarness harness{net, gmp::GmpParams{}};
  const auto rates = harness.run(250);

  const auto model =
      analysis::buildCliqueModel(sc.topology, sc.flows, kCapacity);
  const auto reference = analysis::solveWeightedMaxmin(model);

  // Feasibility of the converged point (fluid scaling enforces it).
  EXPECT_TRUE(analysis::isFeasible(model, rates, 1.0));

  // The smallest normalized rate is the maxmin-critical quantity; GMP
  // must bring it close to the reference's smallest normalized rate.
  auto minMu = [&](const std::map<net::FlowId, double>& rs) {
    double v = std::numeric_limits<double>::infinity();
    for (const net::FlowSpec& f : sc.flows) {
      v = std::min(v, rs.at(f.id) / f.weight);
    }
    return v;
  };
  EXPECT_GT(minMu(rates), 0.55 * minMu(reference))
      << "seed " << seed << ": GMP starved a flow the reference sustains";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidGmpPropertyTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace maxmin::fluid
