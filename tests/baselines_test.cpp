#include <gtest/gtest.h>

#include "analysis/maxmin_solver.hpp"
#include "baselines/configs.hpp"
#include "baselines/two_phase.hpp"
#include "scenarios/scenarios.hpp"

namespace maxmin::baselines {
namespace {

TEST(Configs, ProtocolQueueingMatchesPaperSection72) {
  const auto dcf = config80211();
  EXPECT_EQ(dcf.discipline, net::QueueDiscipline::kSharedFifo);
  EXPECT_FALSE(dcf.congestionAvoidance);
  EXPECT_EQ(dcf.sharedBufferCapacity, 300);

  const auto tpp = config2pp();
  EXPECT_EQ(tpp.discipline, net::QueueDiscipline::kPerFlow);
  EXPECT_FALSE(tpp.congestionAvoidance);
  EXPECT_EQ(tpp.queueCapacity, 10);

  const auto gmp = configGmp();
  EXPECT_EQ(gmp.discipline, net::QueueDiscipline::kPerDestination);
  EXPECT_TRUE(gmp.congestionAvoidance);
  EXPECT_EQ(gmp.queueCapacity, 10);
}

TEST(NominalCapacity, MatchesTimingArithmetic) {
  const mac::MacParams p;
  const double cap = p.nominalLinkCapacityPps(DataSize::bytes(1024));
  // DIFS 50 + mean backoff 15*20=310 + exchange (176+152+862+152+30).
  const double perPacketUs = 50 + 300 + 1372;  // cwMin/2 = 15 slots
  EXPECT_NEAR(cap, 1e6 / perPacketUs, 1.0);
  EXPECT_GT(cap, 500.0);
  EXPECT_LT(cap, 700.0);
}

TEST(TwoPhase, Fig3BasicShareIsConservativeEqualSplit) {
  const auto sc = scenarios::fig3();
  const TwoPhaseAllocator alloc{sc.topology, sc.flows, 580.0};
  const auto a = alloc.allocate();
  // One clique, 6 traversals, conservatism 0.5: basic = 580/6/2.
  for (const auto& f : sc.flows) {
    EXPECT_NEAR(a.basicSharePps.at(f.id), 580.0 / 12, 1e-6);
  }
}

TEST(TwoPhase, Fig3RemainderGoesToShortestFlow) {
  const auto sc = scenarios::fig3();
  const TwoPhaseAllocator alloc{sc.topology, sc.flows, 580.0};
  const auto a = alloc.allocate();
  // <2,3> (1 hop) absorbs the entire residual.
  EXPECT_GT(a.totalPps.at(2), 4.0 * a.totalPps.at(0));
  EXPECT_NEAR(a.totalPps.at(0), a.basicSharePps.at(0), 1e-6);
  EXPECT_NEAR(a.totalPps.at(1), a.basicSharePps.at(1), 1e-6);
}

TEST(TwoPhase, Fig4BiasesSideOneHopFlows) {
  // The paper's Table 4 pathology: remaining bandwidth heavily biased
  // toward f2 and f8 (ids 1 and 7), basic shares small for everyone else.
  const auto sc = scenarios::fig4();
  const TwoPhaseAllocator alloc{sc.topology, sc.flows, 580.0};
  const auto a = alloc.allocate();
  EXPECT_GT(a.totalPps.at(1), 3.0 * a.totalPps.at(0));
  EXPECT_GT(a.totalPps.at(7), 3.0 * a.totalPps.at(6));
  EXPECT_NEAR(a.totalPps.at(1), a.totalPps.at(7), 1e-6);  // symmetric
  // The other six flows sit at their basic shares.
  for (net::FlowId id : {0, 2, 3, 4, 5, 6}) {
    if (id == 1 || id == 7) continue;
    EXPECT_NEAR(a.totalPps.at(id), a.basicSharePps.at(id), 1e-6)
        << "flow " << id;
  }
}

TEST(TwoPhase, AllocationIsCliqueFeasible) {
  for (const auto& sc :
       {scenarios::fig3(), scenarios::fig4(), scenarios::fig2()}) {
    const TwoPhaseAllocator alloc{sc.topology, sc.flows, 580.0};
    const auto a = alloc.allocate();
    const auto model =
        analysis::buildCliqueModel(sc.topology, sc.flows, 580.0);
    EXPECT_TRUE(analysis::isFeasible(model, a.totalPps, 1e-6)) << sc.name;
  }
}

TEST(TwoPhase, RespectsDesiredRates) {
  auto sc = scenarios::fig3();
  for (auto& f : sc.flows) f.desiredRate = PacketRate::perSecond(30.0);
  const TwoPhaseAllocator alloc{sc.topology, sc.flows, 580.0};
  const auto a = alloc.allocate();
  for (const auto& f : sc.flows) {
    EXPECT_LE(a.totalPps.at(f.id), 30.0 + 1e-9);
  }
}

TEST(TwoPhase, BasicShareNeverExceedsTotal) {
  for (int seed = 1; seed <= 8; ++seed) {
    const auto sc = scenarios::randomMesh(
        static_cast<std::uint64_t>(seed) * 13 + 3, 10, 900.0, 4);
    const TwoPhaseAllocator alloc{sc.topology, sc.flows, 580.0};
    const auto a = alloc.allocate();
    for (const auto& f : sc.flows) {
      EXPECT_LE(a.basicSharePps.at(f.id), a.totalPps.at(f.id) + 1e-9);
      EXPECT_GT(a.basicSharePps.at(f.id), 0.0);
    }
  }
}

TEST(TwoPhase, RejectsBadConservatism) {
  const auto sc = scenarios::fig3();
  EXPECT_THROW((TwoPhaseAllocator{sc.topology, sc.flows, 580.0, 0.0}),
               InvariantViolation);
  EXPECT_THROW((TwoPhaseAllocator{sc.topology, sc.flows, 580.0, 1.5}),
               InvariantViolation);
}

}  // namespace
}  // namespace maxmin::baselines
