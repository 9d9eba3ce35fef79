#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "analysis/convergence.hpp"
#include "analysis/experiment.hpp"
#include "analysis/maxmin_solver.hpp"
#include "analysis/metrics.hpp"
#include "scenarios/scenarios.hpp"
#include "util/rng.hpp"

namespace maxmin::analysis {
namespace {

constexpr double kCapacity = 580.0;

TEST(Metrics, SummarizeComputesPaperIndices) {
  // Paper Table 3, 802.11 column.
  const std::map<net::FlowId, double> rates{{0, 80.63}, {1, 220.07},
                                            {2, 174.09}};
  const std::map<net::FlowId, int> hops{{0, 3}, {1, 2}, {2, 1}};
  const auto s = summarize(rates, hops);
  EXPECT_NEAR(s.effectiveThroughputPps, 856.12, 0.05);
  EXPECT_NEAR(s.imm, 80.63 / 220.07, 1e-9);
  EXPECT_NEAR(s.ieq, 0.882, 0.001);
  EXPECT_NEAR(s.totalRatePps, 474.79, 1e-6);
}

TEST(Metrics, NormalizedSummaryDividesByWeights) {
  const std::map<net::FlowId, double> rates{{0, 200.0}, {1, 100.0}};
  const std::map<net::FlowId, double> weights{{0, 2.0}, {1, 1.0}};
  const std::map<net::FlowId, int> hops{{0, 1}, {1, 1}};
  const auto s = summarizeNormalized(rates, weights, hops);
  EXPECT_DOUBLE_EQ(s.imm, 1.0);  // both normalized to 100
  EXPECT_DOUBLE_EQ(s.ieq, 1.0);
}

TEST(MaxminSolver, SingleCliqueChainEqualizes) {
  const auto sc = scenarios::fig3();
  const auto model = buildCliqueModel(sc.topology, sc.flows, kCapacity);
  const auto rates = solveWeightedMaxmin(model);
  // One clique, traversals 3+2+1: equal rates capacity/6.
  for (const auto& [id, r] : rates) EXPECT_NEAR(r, kCapacity / 6, 1e-6);
  EXPECT_TRUE(satisfiesBottleneckCondition(model, rates));
}

TEST(MaxminSolver, Fig2MatchesHandComputation) {
  const auto sc = scenarios::fig2();
  const auto model = buildCliqueModel(sc.topology, sc.flows, kCapacity);
  const auto rates = solveWeightedMaxmin(model);
  // Clique 1 {(1,2),(3,4),(4,5)} splits capacity three ways; f1 takes the
  // rest of clique 0.
  EXPECT_NEAR(rates.at(1), kCapacity / 3, 1e-6);
  EXPECT_NEAR(rates.at(2), kCapacity / 3, 1e-6);
  EXPECT_NEAR(rates.at(3), kCapacity / 3, 1e-6);
  EXPECT_NEAR(rates.at(0), kCapacity - kCapacity / 3, 1e-6);
  EXPECT_TRUE(satisfiesBottleneckCondition(model, rates));
}

TEST(MaxminSolver, Fig2WeightedMatchesHandComputation) {
  const auto sc = scenarios::fig2({1, 2, 1, 3});
  const auto model = buildCliqueModel(sc.topology, sc.flows, kCapacity);
  const auto rates = solveWeightedMaxmin(model);
  // Clique 1 weights 2+1+3=6: mu = C/6.
  EXPECT_NEAR(rates.at(1), kCapacity / 6 * 2, 1e-6);
  EXPECT_NEAR(rates.at(2), kCapacity / 6 * 1, 1e-6);
  EXPECT_NEAR(rates.at(3), kCapacity / 6 * 3, 1e-6);
  // f1 fills clique 0 behind f2.
  EXPECT_NEAR(rates.at(0), kCapacity - kCapacity / 3, 1e-6);
  EXPECT_TRUE(satisfiesBottleneckCondition(model, rates));
}

TEST(MaxminSolver, DesiredRateCapsAllocation) {
  auto sc = scenarios::fig3();
  sc.flows[2].desiredRate = PacketRate::perSecond(20.0);
  const auto model = buildCliqueModel(sc.topology, sc.flows, kCapacity);
  const auto rates = solveWeightedMaxmin(model);
  EXPECT_NEAR(rates.at(2), 20.0, 1e-9);
  // Freed capacity goes to the others: 3a + 2a + 20 = C.
  EXPECT_NEAR(rates.at(0), (kCapacity - 20.0) / 5, 1e-6);
  EXPECT_NEAR(rates.at(1), (kCapacity - 20.0) / 5, 1e-6);
  EXPECT_TRUE(satisfiesBottleneckCondition(model, rates));
}

TEST(MaxminSolver, WeightScalingInvariance) {
  // Scaling every weight by the same constant must not change rates.
  const auto sc1 = scenarios::fig2({1, 2, 1, 3});
  const auto sc2 = scenarios::fig2({2, 4, 2, 6});
  const auto r1 = solveWeightedMaxmin(
      buildCliqueModel(sc1.topology, sc1.flows, kCapacity));
  const auto r2 = solveWeightedMaxmin(
      buildCliqueModel(sc2.topology, sc2.flows, kCapacity));
  for (const auto& [id, r] : r1) EXPECT_NEAR(r, r2.at(id), 1e-6);
}

TEST(MaxminSolver, BottleneckCheckRejectsNonMaxmin) {
  const auto sc = scenarios::fig3();
  const auto model = buildCliqueModel(sc.topology, sc.flows, kCapacity);
  // Feasible but not maxmin: one flow starved with spare capacity.
  std::map<net::FlowId, double> bad{{0, 10.0}, {1, 10.0}, {2, 10.0}};
  EXPECT_TRUE(isFeasible(model, bad));
  EXPECT_FALSE(satisfiesBottleneckCondition(model, bad));
  // Infeasible is rejected outright.
  std::map<net::FlowId, double> over{{0, 500.0}, {1, 500.0}, {2, 500.0}};
  EXPECT_FALSE(isFeasible(model, over));
  EXPECT_FALSE(satisfiesBottleneckCondition(model, over));
}

class MaxminPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxminPropertyTest, WaterfillSatisfiesMaxminCertificate) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto sc = scenarios::randomMesh(seed * 37 + 1, 12, 1000.0, 5);
  const auto model = buildCliqueModel(sc.topology, sc.flows, kCapacity);
  const auto rates = solveWeightedMaxmin(model);
  EXPECT_TRUE(isFeasible(model, rates, 1e-6)) << "seed " << seed;
  EXPECT_TRUE(satisfiesBottleneckCondition(model, rates, 1e-6))
      << "seed " << seed;
  for (const auto& [id, r] : rates) EXPECT_GT(r, 0.0);
}

TEST_P(MaxminPropertyTest, RaisingAnyFlowBreaksFeasibilityOrMaxmin) {
  // Exchange property probe: raising any non-demand-capped flow by 5%
  // while keeping everyone else must violate some clique.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto sc = scenarios::randomMesh(seed * 91 + 7, 10, 900.0, 4);
  const auto model = buildCliqueModel(sc.topology, sc.flows, kCapacity);
  const auto rates = solveWeightedMaxmin(model);
  for (const auto& fe : model.flows) {
    if (rates.at(fe.id) >= fe.desiredPps - 1e-6) continue;
    auto bumped = rates;
    bumped[fe.id] *= 1.05;
    EXPECT_FALSE(isFeasible(model, bumped, 1e-6))
        << "flow " << fe.id << " had headroom the solver left unused";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxminPropertyTest, ::testing::Range(1, 16));


// --- convergence analysis -----------------------------------------------------

RateHistory syntheticHistory() {
  // Flow 0 ramps 100 -> 200 over 10 periods then holds; flow 1 constant.
  RateHistory h;
  for (int p = 0; p < 30; ++p) {
    std::map<net::FlowId, double> rates;
    rates[0] = p < 10 ? 100.0 + 10.0 * p : 200.0;
    rates[1] = 50.0;
    h.push_back(rates);
  }
  return h;
}

TEST(Convergence, DetectsSettlingPeriod) {
  const auto report = analyzeConvergence(syntheticHistory(), 0.05, 10);
  EXPECT_NEAR(report.finalRates.at(0), 200.0, 1e-9);
  EXPECT_NEAR(report.finalRates.at(1), 50.0, 1e-9);
  // 5% band around 200: rates >= 190 enter the band at p=9 (190).
  EXPECT_EQ(report.convergedAtPeriod, 9);
  EXPECT_NEAR(report.tailOscillation, 0.0, 1e-12);
}

TEST(Convergence, OscillationMeasuredOverTail) {
  RateHistory h;
  for (int p = 0; p < 20; ++p) {
    std::map<net::FlowId, double> rates;
    rates[0] = p % 2 == 0 ? 90.0 : 110.0;  // +/-10% around 100
    h.push_back(rates);
  }
  const auto report = analyzeConvergence(h, 0.15, 10);
  EXPECT_NEAR(report.finalRates.at(0), 100.0, 1e-9);
  EXPECT_NEAR(report.tailOscillation, 0.2, 1e-9);  // peak-to-peak 20/100
  EXPECT_EQ(report.convergedAtPeriod, 0);          // inside the 15% band
}

TEST(Convergence, NeverSettlingReportsMinusOne) {
  RateHistory h;
  for (int p = 0; p < 20; ++p) {
    std::map<net::FlowId, double> rates;
    rates[0] = p % 2 == 0 ? 10.0 : 300.0;
    h.push_back(rates);
  }
  const auto report = analyzeConvergence(h, 0.15, 5);
  EXPECT_EQ(report.convergedAtPeriod, -1);
  EXPECT_GT(report.tailOscillation, 1.0);
}

TEST(Convergence, RejectsShortHistory) {
  RateHistory h(3, {{0, 1.0}});
  EXPECT_THROW(analyzeConvergence(h, 0.15, 10), InvariantViolation);
}

// --- run-config validation --------------------------------------------------

TEST(Validate, DefaultConfigIsWellFormed) {
  EXPECT_TRUE(validate(RunConfig{}, scenarios::fig3()).empty());
}

TEST(Validate, ReportsEveryBrokenRule) {
  RunConfig cfg;
  cfg.protocol = Protocol::kDcf80211;
  cfg.warmup = Duration::seconds(-1.0);
  cfg.netBase.impairments.per = std::numeric_limits<double>::quiet_NaN();
  cfg.netBase.impairments.gilbert.lossBad = 1.5;
  cfg.hybrid.fastForward = true;
  cfg.hybrid.ffTol = std::numeric_limits<double>::quiet_NaN();
  // warmup, PER, Gilbert-Elliott, hybrid protocol, ff tolerance.
  EXPECT_EQ(validate(cfg, scenarios::fig3()).size(), 5u);

  cfg = RunConfig{};
  cfg.warmup = cfg.duration;
  EXPECT_EQ(validate(cfg, scenarios::fig3()).size(), 1u);
}

TEST(Validate, HybridBackgroundNeedsAProperForegroundAndNoFaults) {
  const auto sc = scenarios::fig3();  // flows 0, 1, 2
  RunConfig cfg;
  cfg.hybrid.background = true;
  EXPECT_EQ(validate(cfg, sc).size(), 1u);  // empty foreground
  cfg.hybrid.foreground = {0, 7};
  EXPECT_EQ(validate(cfg, sc).size(), 1u);  // no flow 7
  cfg.hybrid.foreground = {0, 1, 2};
  EXPECT_EQ(validate(cfg, sc).size(), 1u);  // nothing left to background
  cfg.hybrid.foreground = {0};
  EXPECT_TRUE(validate(cfg, sc).empty());
  cfg.faults = sim::parseFaultScript("crash 1 20");
  EXPECT_EQ(validate(cfg, sc).size(), 1u);
  cfg.faults = {};
  cfg.hybrid.background = false;  // a foreground list alone means nothing
  EXPECT_EQ(validate(cfg, sc).size(), 1u);
}

TEST(Validate, RunScenarioThrowsTheFirstMessage) {
  RunConfig cfg;
  cfg.warmup = Duration::seconds(-1.0);
  const auto errors = validate(cfg, scenarios::fig3());
  ASSERT_FALSE(errors.empty());
  try {
    static_cast<void>(runScenario(scenarios::fig3(), cfg));
    ADD_FAILURE() << "runScenario accepted a negative warmup";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string{e.what()}, errors.front());
  }
}

}  // namespace
}  // namespace maxmin::analysis

