#include <gtest/gtest.h>

#include <algorithm>

#include "gmp/engine.hpp"
#include "gmp/virtual_network.hpp"
#include "scenarios/scenarios.hpp"

namespace maxmin::gmp {
namespace {

using topo::ContentionStructure;

topo::Topology chainTopo(int n, double spacing = 200.0) {
  std::vector<topo::Point> pts;
  for (int i = 0; i < n; ++i) pts.push_back({spacing * i, 0.0});
  return topo::Topology::fromPositions(std::move(pts));
}

TEST(BetaCompare, EqualAndSmaller) {
  const BetaCompare cmp{0.10};
  EXPECT_TRUE(cmp.equal(100.0, 100.0));
  EXPECT_TRUE(cmp.equal(100.0, 95.0));   // 5% of 100
  EXPECT_TRUE(cmp.equal(95.0, 100.0));
  EXPECT_FALSE(cmp.equal(100.0, 89.0));  // 11% of 100
  EXPECT_TRUE(cmp.smaller(89.0, 100.0));
  EXPECT_FALSE(cmp.smaller(95.0, 100.0));
  EXPECT_FALSE(cmp.smaller(100.0, 95.0));
  EXPECT_TRUE(cmp.equal(0.0, 0.0));
}

TEST(BetaCompare, RejectsBadBeta) {
  EXPECT_THROW(BetaCompare{-0.1}, InvariantViolation);
  EXPECT_THROW(BetaCompare{1.0}, InvariantViolation);
}

TEST(LinkClassification, PaperTable) {
  EXPECT_EQ(classifyLink(false, false), LinkType::kUnsaturated);
  EXPECT_EQ(classifyLink(false, true), LinkType::kUnsaturated);
  EXPECT_EQ(classifyLink(true, false), LinkType::kBandwidthSaturated);
  EXPECT_EQ(classifyLink(true, true), LinkType::kBufferSaturated);
}

TEST(ContentionStructure, Fig2HasTheTwoPaperCliques) {
  const auto sc = scenarios::fig2();
  auto cs = ContentionStructure::build(
      sc.topology, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  ASSERT_EQ(cs.cliques.size(), 2u);
  // Resolve cliques into link sets.
  std::vector<std::vector<topo::Link>> sets;
  for (const auto& c : cs.cliques) {
    std::vector<topo::Link> links;
    for (int li : c.linkIndices)
      links.push_back(cs.links[static_cast<std::size_t>(li)]);
    sets.push_back(links);
  }
  const std::vector<topo::Link> clique0{{0, 1}, {1, 2}};
  const std::vector<topo::Link> clique1{{1, 2}, {3, 4}, {4, 5}};
  EXPECT_TRUE((sets[0] == clique0 && sets[1] == clique1) ||
              (sets[0] == clique1 && sets[1] == clique0));
}

TEST(ContentionStructure, LinkIndexLookup) {
  auto cs = ContentionStructure::build(chainTopo(3), {{1, 2}, {0, 1}});
  EXPECT_EQ(cs.linkIndex({0, 1}), 0);
  EXPECT_EQ(cs.linkIndex({1, 2}), 1);
  EXPECT_EQ(cs.linkIndex({2, 1}), -1);
}

// --- Engine fixtures ---------------------------------------------------------

FlowState flow(net::FlowId id, topo::NodeId src, topo::NodeId dst,
               double rate, std::optional<double> limit, double weight = 1.0) {
  FlowState f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.weight = weight;
  f.desiredPps = 800.0;
  f.ratePps = rate;
  f.limitPps = limit;
  return f;
}

VLinkState vlink(topo::NodeId from, topo::NodeId to, topo::NodeId dest,
                 LinkType type, double normRate,
                 std::vector<net::FlowId> primaries) {
  VLinkState vl;
  vl.key = {from, to, dest};
  vl.type = type;
  vl.normRate = normRate;
  vl.ratePps = normRate;
  vl.primaryFlows = std::move(primaries);
  return vl;
}

net::FlowSpec spec(net::FlowId id, topo::NodeId src, topo::NodeId dst) {
  net::FlowSpec f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  return f;
}

/// Index a hand-built snapshot the way the producers do: each flow's
/// route follows the snapshot's own vlinks from its source to its
/// destination, and the listed (node, dest) vnodes are saturated.
void index(const ContentionStructure& cs, Snapshot& s,
           std::vector<std::pair<topo::NodeId, topo::NodeId>> saturated) {
  std::vector<net::FlowSpec> specs;
  std::vector<std::vector<topo::NodeId>> paths;
  for (const FlowState& f : s.flows) {
    specs.push_back(spec(f.id, f.src, f.dst));
    auto& path = paths.emplace_back(1, f.src);
    while (path.back() != f.dst) {
      const auto hop =
          std::ranges::find_if(s.vlinks, [&](const VLinkState& vl) {
            return vl.key.from == path.back() && vl.key.dest == f.dst;
          });
      ASSERT_NE(hop, s.vlinks.end()) << "no vlink out of " << path.back();
      path.push_back(hop->key.to);
    }
  }
  s.vnet = VirtualNetwork::build(cs, specs, paths);
  ASSERT_EQ(s.vlinks.size(), s.vnet->vlinks.size());
  for (std::size_t v = 0; v < s.vlinks.size(); ++v) {
    ASSERT_EQ(s.vlinks[v].key, s.vnet->vlinks[v]);
  }
  s.saturated.assign(s.vnet->vnodes.size(), 0);
  for (const auto& [node, dest] : saturated) {
    const int v = s.vnet->vnodeId(node, dest);
    ASSERT_GE(v, 0) << "no vnode " << node << "@" << dest;
    s.saturated[static_cast<std::size_t>(v)] = 1;
  }
}

const Command* findCommand(const DecisionReport& r, net::FlowId id) {
  for (const Command& c : r.commands) {
    if (c.flow == id) return &c;
  }
  return nullptr;
}

class SourceConditionTest : public ::testing::Test {
 protected:
  // Chain 0-1-2; flow A is local at node 1 (dest 2), flow B comes from
  // node 0 through the buffer-saturated upstream link (0,1).
  Snapshot makeSnapshot(double rateA, double rateB) {
    Snapshot s;
    s.flows = {flow(0, 1, 2, rateA, rateA), flow(1, 0, 2, rateB, rateB)};
    s.vlinks = {
        vlink(0, 1, 2, LinkType::kBufferSaturated, rateB, {1}),
        vlink(1, 2, 2, LinkType::kBandwidthSaturated,
              std::max(rateA, rateB), {rateA >= rateB ? 0 : 1}),
    };
    s.wlinks = {{{0, 1}, 0.3, rateB}, {{1, 2}, 0.6, std::max(rateA, rateB)}};
    index(cs_, s, {{0, 2}, {1, 2}});
    return s;
  }

  const ContentionStructure cs_ =
      ContentionStructure::build(chainTopo(3), {{0, 1}, {1, 2}});
  Engine engine_{cs_, GmpParams{}};
};

TEST_F(SourceConditionTest, NarrowGapUsesBetaSteps) {
  const auto report = engine_.decide(makeSnapshot(200.0, 100.0));
  EXPECT_EQ(report.sourceBufferViolations, 1);
  const Command* a = findCommand(report, 0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, Command::Kind::kSetLimit);
  EXPECT_NEAR(a->limitPps, 180.0, 1e-9);  // reduce by beta
  const Command* b = findCommand(report, 1);
  ASSERT_NE(b, nullptr);
  EXPECT_NEAR(b->limitPps, 110.0, 1e-9);  // increase by beta
}

TEST_F(SourceConditionTest, WideGapHalvesAndDoubles) {
  const auto report = engine_.decide(makeSnapshot(400.0, 100.0));
  const Command* a = findCommand(report, 0);
  ASSERT_NE(a, nullptr);
  EXPECT_NEAR(a->limitPps, 200.0, 1e-9);  // halve
  const Command* b = findCommand(report, 1);
  ASSERT_NE(b, nullptr);
  EXPECT_NEAR(b->limitPps, 200.0, 1e-9);  // double
}

TEST_F(SourceConditionTest, EqualRatesSatisfyCondition) {
  const auto report = engine_.decide(makeSnapshot(100.0, 95.0));
  EXPECT_EQ(report.sourceBufferViolations, 0);
  EXPECT_TRUE(report.conditionsSatisfied());
}

TEST_F(SourceConditionTest, UnlimitedFlowGetsNoIncreaseRequest) {
  Snapshot s = makeSnapshot(200.0, 100.0);
  s.flows[1].limitPps = std::nullopt;  // B unlimited
  const auto report = engine_.decide(s);
  const Command* b = findCommand(report, 1);
  EXPECT_EQ(b, nullptr);  // cannot raise a nonexistent limit
}

class BandwidthConditionTest : public ::testing::Test {
 protected:
  // Chain 0-1-2-3 with flows C: 0->1 and D: 2->3 in one clique.
  Snapshot makeSnapshot(double rateC, double rateD, double occC = 0.5,
                        double occD = 0.5) {
    Snapshot s;
    s.flows = {flow(0, 0, 1, rateC, rateC), flow(1, 2, 3, rateD, rateD)};
    s.vlinks = {
        vlink(0, 1, 1, LinkType::kBandwidthSaturated, rateC, {0}),
        vlink(2, 3, 3, LinkType::kBandwidthSaturated, rateD, {1}),
    };
    s.wlinks = {{{0, 1}, occC, rateC}, {{2, 3}, occD, rateD}};
    index(cs_, s, {{0, 1}, {2, 3}});
    return s;
  }

  const ContentionStructure cs_ =
      ContentionStructure::build(chainTopo(4), {{0, 1}, {2, 3}});
  Engine engine_{cs_, GmpParams{}};
};

TEST_F(BandwidthConditionTest, DeprivedLinkTriggersRebalance) {
  const auto report = engine_.decide(makeSnapshot(300.0, 100.0));
  EXPECT_EQ(report.bandwidthViolations, 1);
  const Command* c = findCommand(report, 0);
  ASSERT_NE(c, nullptr);
  EXPECT_NEAR(c->limitPps, 270.0, 1e-9);  // reduce by beta (no halving here)
  const Command* d = findCommand(report, 1);
  ASSERT_NE(d, nullptr);
  EXPECT_NEAR(d->limitPps, 110.0, 1e-9);  // increase by beta
}

TEST_F(BandwidthConditionTest, EqualRatesSatisfy) {
  const auto report = engine_.decide(makeSnapshot(105.0, 100.0));
  EXPECT_EQ(report.bandwidthViolations, 0);
}

TEST_F(BandwidthConditionTest, TopLinkItselfIsSatisfied) {
  // Only the deprived link's wireless link is inspected; the link holding
  // the clique maximum is satisfied by definition. With a single
  // bandwidth-saturated link, nothing fires.
  Snapshot s = makeSnapshot(300.0, 100.0);
  s.vlinks[1].type = LinkType::kUnsaturated;  // D's link no longer bw-sat
  s.saturated[static_cast<std::size_t>(s.vnet->vnodeId(2, 3))] = 0;
  const auto report = engine_.decide(s);
  EXPECT_EQ(report.bandwidthViolations, 0);
}

TEST_F(BandwidthConditionTest, OverlappingSaturatedCliquesActOncePerMember) {
  // Chain 0-..-5, one single-hop flow per link L0..L4. Links up to three
  // apart contend, so the cliques are {L0..L3} and {L1..L4}: the deprived
  // L2 sits in both, and so do L1 and L3. Node 5 is stale, so L4 is
  // masked: its airtime does not count (both cliques are saturated) and
  // its rate of 1000 must not become L2 (the live top is 300).
  const ContentionStructure cs = ContentionStructure::build(
      chainTopo(6), {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  ASSERT_EQ(cs.cliques.size(), 2u);
  const Engine engine{cs, GmpParams{}};
  Snapshot s;
  s.flows = {flow(0, 0, 1, 200.0, 200.0), flow(1, 1, 2, 300.0, 300.0),
             flow(2, 2, 3, 100.0, 100.0), flow(3, 3, 4, 300.0, 300.0),
             flow(4, 4, 5, 1000.0, 1000.0)};
  s.vlinks = {
      vlink(0, 1, 1, LinkType::kUnsaturated, 200.0, {0}),
      vlink(1, 2, 2, LinkType::kBandwidthSaturated, 300.0, {1}),
      vlink(2, 3, 3, LinkType::kBandwidthSaturated, 100.0, {2}),
      vlink(3, 4, 4, LinkType::kBandwidthSaturated, 300.0, {3}),
      vlink(4, 5, 5, LinkType::kBandwidthSaturated, 1000.0, {4}),
  };
  s.wlinks = {{{0, 1}, 0.05, 200.0},
              {{1, 2}, 0.3, 300.0},
              {{2, 3}, 0.3, 100.0},
              {{3, 4}, 0.3, 300.0},
              {{4, 5}, 0.5, 1000.0}};
  s.staleNodes = {5};
  index(cs, s, {{1, 2}, {2, 3}, {3, 4}, {4, 5}});
  const auto report = engine.decide(s);

  EXPECT_EQ(report.bandwidthViolations, 1);
  EXPECT_EQ(report.reduceRequests, 2);    // L1 and L3, once each
  EXPECT_EQ(report.increaseRequests, 1);  // L2 itself, once
  const Command* l1 = findCommand(report, 1);
  ASSERT_NE(l1, nullptr);
  EXPECT_NEAR(l1->limitPps, 270.0, 1e-9);
  const Command* l3 = findCommand(report, 3);
  ASSERT_NE(l3, nullptr);
  EXPECT_NEAR(l3->limitPps, 270.0, 1e-9);
  const Command* l2 = findCommand(report, 2);
  ASSERT_NE(l2, nullptr);
  EXPECT_NEAR(l2->limitPps, 110.0, 1e-9);
}

TEST(EngineResolution, ReductionBeatsIncreaseAndLargestReductionWins) {
  // Flow E is primary on two virtual links at two saturated virtual
  // nodes with different gaps: one requests halving, the other a beta
  // step. The control packet keeps the largest reduction.
  const auto cs =
      ContentionStructure::build(chainTopo(4), {{0, 1}, {1, 2}, {2, 3}});
  Engine engine{cs, GmpParams{}};
  Snapshot s;
  // E: 0 -> 3 at rate 400. Two downstream nodes saturated.
  s.flows = {flow(0, 0, 3, 400.0, 400.0), flow(1, 1, 3, 100.0, 100.0),
             flow(2, 2, 3, 300.0, 300.0)};
  // At node 1: upstream (0,1) with mu 400 (E primary), local flow 1 at
  // mu 100 -> wide gap (400 > 3*100): halve E -> 200.
  // At node 2: upstream (1,2) with mu 400 (E primary), local flow 2 at
  // mu 300 -> narrow gap: reduce E by beta -> 360.
  s.vlinks = {
      vlink(0, 1, 3, LinkType::kBufferSaturated, 400.0, {0}),
      vlink(1, 2, 3, LinkType::kBufferSaturated, 400.0, {0}),
      vlink(2, 3, 3, LinkType::kBandwidthSaturated, 400.0, {0}),
  };
  s.wlinks = {{{0, 1}, 0.3, 400.0}, {{1, 2}, 0.3, 400.0}, {{2, 3}, 0.3, 400.0}};
  index(cs, s, {{0, 3}, {1, 3}, {2, 3}});
  const auto report = engine.decide(s);
  const Command* e = findCommand(report, 0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, Command::Kind::kSetLimit);
  EXPECT_NEAR(e->limitPps, 200.0, 1e-9);  // halving (largest reduction) wins
}

TEST(EngineRateLimitCondition, AdditiveIncreaseWhenBinding) {
  const auto cs = ContentionStructure::build(chainTopo(2), {{0, 1}});
  Engine engine{cs, GmpParams{}};
  Snapshot s;
  s.flows = {flow(0, 0, 1, 100.0, 100.0)};
  s.vlinks = {vlink(0, 1, 1, LinkType::kUnsaturated, 100.0, {0})};
  s.wlinks = {{{0, 1}, 0.2, 100.0}};
  index(cs, s, {});
  const auto report = engine.decide(s);
  ASSERT_EQ(report.commands.size(), 1u);
  EXPECT_EQ(report.commands[0].kind, Command::Kind::kSetLimit);
  EXPECT_NEAR(report.commands[0].limitPps, 110.0, 1e-9);  // +10 pkt/s
  EXPECT_EQ(report.additiveIncreases, 1);
}

TEST(EngineRateLimitCondition, ClearlySlackLimitRemovedWhenUnsaturated) {
  const auto cs = ContentionStructure::build(chainTopo(2), {{0, 1}});
  Engine engine{cs, GmpParams{}};
  Snapshot s;
  s.flows = {flow(0, 0, 1, 40.0, 100.0)};
  s.vlinks = {vlink(0, 1, 1, LinkType::kUnsaturated, 40.0, {0})};
  s.wlinks = {{{0, 1}, 0.1, 40.0}};
  index(cs, s, {});
  const auto report = engine.decide(s);
  ASSERT_EQ(report.commands.size(), 1u);
  EXPECT_EQ(report.commands[0].kind, Command::Kind::kRemoveLimit);
  EXPECT_EQ(report.limitsRemoved, 1);
}

TEST(EngineRateLimitCondition, SlackLimitKeptWhenSourceSaturated) {
  const auto cs = ContentionStructure::build(chainTopo(2), {{0, 1}});
  Engine engine{cs, GmpParams{}};
  Snapshot s;
  s.flows = {flow(0, 0, 1, 40.0, 100.0)};
  s.vlinks = {vlink(0, 1, 1, LinkType::kBandwidthSaturated, 40.0, {0})};
  s.wlinks = {{{0, 1}, 0.9, 40.0}};
  index(cs, s, {{0, 1}});  // congested source queue: keep the limit
  const auto report = engine.decide(s);
  EXPECT_EQ(findCommand(report, 0), nullptr);
  EXPECT_EQ(report.limitsRemoved, 0);
}

TEST(EngineRateLimitCondition, MildSlackNeitherIncreasedNorRemoved) {
  const auto cs = ContentionStructure::build(chainTopo(2), {{0, 1}});
  Engine engine{cs, GmpParams{}};
  Snapshot s;
  s.flows = {flow(0, 0, 1, 80.0, 100.0)};  // 20% slack: not binding,
                                           // not clearly unnecessary
  s.vlinks = {vlink(0, 1, 1, LinkType::kUnsaturated, 80.0, {0})};
  s.wlinks = {{{0, 1}, 0.2, 80.0}};
  index(cs, s, {});
  const auto report = engine.decide(s);
  EXPECT_TRUE(report.commands.empty());
}

TEST(EngineResolution, IncreaseNeverTightensExistingLimit) {
  // A flow with a generous limit receiving only an increase request must
  // not see its limit shrink to the request's target.
  const auto cs = ContentionStructure::build(chainTopo(3), {{0, 1}, {1, 2}});
  Engine engine{cs, GmpParams{}};
  Snapshot s;
  s.flows = {flow(0, 1, 2, 200.0, 200.0), flow(1, 0, 2, 100.0, 500.0)};
  s.vlinks = {
      vlink(0, 1, 2, LinkType::kBufferSaturated, 100.0, {1}),
      vlink(1, 2, 2, LinkType::kBandwidthSaturated, 200.0, {0}),
  };
  s.wlinks = {{{0, 1}, 0.3, 100.0}, {{1, 2}, 0.6, 200.0}};
  index(cs, s, {{0, 2}, {1, 2}});
  const auto report = engine.decide(s);
  const Command* b = findCommand(report, 1);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->kind, Command::Kind::kSetLimit);
  EXPECT_GE(b->limitPps, 500.0);  // kept at least as loose as before
}

TEST(EngineResolution, ReduceTargetFlooredAtMinRate) {
  GmpParams params;
  params.minRatePps = 5.0;
  const auto cs = ContentionStructure::build(chainTopo(3), {{0, 1}, {1, 2}});
  Engine engine{cs, params};
  Snapshot s;
  // Local flow with tiny measured rate still gets a sane (floored) limit.
  s.flows = {flow(0, 1, 2, 1.0, 1.0), flow(1, 0, 2, 0.1, 0.1)};
  s.vlinks = {
      vlink(0, 1, 2, LinkType::kBufferSaturated, 0.1, {1}),
      vlink(1, 2, 2, LinkType::kBandwidthSaturated, 1.0, {0}),
  };
  s.wlinks = {{{0, 1}, 0.3, 0.1}, {{1, 2}, 0.6, 1.0}};
  index(cs, s, {{0, 2}, {1, 2}});
  const auto report = engine.decide(s);
  for (const Command& c : report.commands) {
    if (c.kind == Command::Kind::kSetLimit) {
      EXPECT_GE(c.limitPps, params.minRatePps);
    }
  }
}


TEST(EngineWeighted, ConditionsCompareNormalizedRatesNotRawRates) {
  // Two local flows at a saturated source: raw rates 200 and 100 but
  // weights 2 and 1 — normalized rates are equal, so the source
  // condition is satisfied and no commands are issued beyond rate-limit
  // maintenance.
  const auto cs = ContentionStructure::build(chainTopo(3), {{0, 1}, {1, 2}});
  Engine engine{cs, GmpParams{}};
  Snapshot s;
  s.flows = {flow(0, 0, 2, 200.0, 200.0, 2.0),
             flow(1, 0, 2, 100.0, 100.0, 1.0)};
  VLinkState vl = vlink(0, 1, 2, LinkType::kBufferSaturated, 100.0, {0, 1});
  s.vlinks = {vl, vlink(1, 2, 2, LinkType::kBandwidthSaturated, 100.0, {0, 1})};
  s.wlinks = {{{0, 1}, 0.5, 100.0}, {{1, 2}, 0.5, 100.0}};
  index(cs, s, {{0, 2}, {1, 2}});
  const auto report = engine.decide(s);
  EXPECT_EQ(report.sourceBufferViolations, 0);
  for (const Command& c : report.commands) {
    // Only additive probes (both limits binding), no reductions.
    EXPECT_EQ(c.kind, Command::Kind::kSetLimit);
    EXPECT_GT(c.limitPps, 99.0);
  }
}

TEST(EngineWeighted, HeavierFlowReducedWhenNormalizedRateIsLarger) {
  // Weight-2 flow at raw 600 (mu 300) vs weight-1 flow at raw 150
  // (mu 150): the heavy flow's normalized rate is the violation.
  const auto cs = ContentionStructure::build(chainTopo(3), {{0, 1}, {1, 2}});
  Engine engine{cs, GmpParams{}};
  Snapshot s;
  s.flows = {flow(0, 1, 2, 600.0, 600.0, 2.0),
             flow(1, 0, 2, 150.0, 150.0, 1.0)};
  s.vlinks = {
      vlink(0, 1, 2, LinkType::kBufferSaturated, 150.0, {1}),
      vlink(1, 2, 2, LinkType::kBandwidthSaturated, 300.0, {0}),
  };
  s.wlinks = {{{0, 1}, 0.3, 150.0}, {{1, 2}, 0.7, 300.0}};
  index(cs, s, {{0, 2}, {1, 2}});
  const auto report = engine.decide(s);
  EXPECT_EQ(report.sourceBufferViolations, 1);
  const Command* heavy = findCommand(report, 0);
  ASSERT_NE(heavy, nullptr);
  EXPECT_LT(heavy->limitPps, 600.0);  // reduced
  const Command* light = findCommand(report, 1);
  ASSERT_NE(light, nullptr);
  EXPECT_GT(light->limitPps, 150.0);  // increased
}

TEST(EngineMultiplePrimaries, AllPrimariesOfTheTopLinkAreReduced) {
  const auto cs = ContentionStructure::build(chainTopo(3), {{0, 1}, {1, 2}});
  Engine engine{cs, GmpParams{}};
  Snapshot s;
  // Two flows share the upstream link with (beta-)equal top normalized
  // rates; a cheaper local flow anchors S1.
  s.flows = {flow(0, 0, 2, 200.0, 200.0), flow(1, 0, 2, 195.0, 195.0),
             flow(2, 1, 2, 100.0, 100.0)};
  s.vlinks = {
      vlink(0, 1, 2, LinkType::kBufferSaturated, 200.0, {0, 1}),
      vlink(1, 2, 2, LinkType::kBandwidthSaturated, 200.0, {0, 1}),
  };
  s.wlinks = {{{0, 1}, 0.5, 200.0}, {{1, 2}, 0.5, 200.0}};
  index(cs, s, {{0, 2}, {1, 2}});
  const auto report = engine.decide(s);
  const Command* a = findCommand(report, 0);
  const Command* b = findCommand(report, 1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_LT(a->limitPps, 200.0);
  EXPECT_LT(b->limitPps, 195.0);
}

TEST(EngineEdgeCases, MissingSaturationEntriesMeanUnsaturated) {
  // A snapshot with no saturation map entries must produce no condition
  // violations (nothing is saturated).
  const auto cs = ContentionStructure::build(chainTopo(3), {{0, 1}, {1, 2}});
  Engine engine{cs, GmpParams{}};
  Snapshot s;
  s.flows = {flow(0, 0, 2, 100.0, std::nullopt)};
  s.vlinks = {vlink(0, 1, 2, LinkType::kUnsaturated, 100.0, {0}),
              vlink(1, 2, 2, LinkType::kUnsaturated, 100.0, {0})};
  s.wlinks = {{{0, 1}, 0.2, 100.0}, {{1, 2}, 0.2, 100.0}};
  index(cs, s, {});
  const auto report = engine.decide(s);
  EXPECT_TRUE(report.conditionsSatisfied());
  EXPECT_TRUE(report.commands.empty());  // unlimited flow, nothing to do
}

TEST(EngineEdgeCases, EmptySnapshotIsANoOp) {
  // No flows: nothing measured, nothing to decide.
  const auto cs = ContentionStructure::build(chainTopo(2), {{0, 1}});
  Engine engine{cs, GmpParams{}};
  Snapshot s;
  s.wlinks = {{{0, 1}, 0.0, 0.0}};
  index(cs, s, {});
  const auto report = engine.decide(s);
  EXPECT_TRUE(report.conditionsSatisfied());
  EXPECT_TRUE(report.commands.empty());
}

TEST(EngineEdgeCases, SaturatedSourceWithoutFlowsOrUpstreamIsIgnored) {
  // The saturated vnode's only flow is impaired, so the checks see a
  // vnode with nothing attached; the flow itself only decays.
  const auto cs = ContentionStructure::build(chainTopo(2), {{0, 1}});
  Engine engine{cs, GmpParams{}};
  Snapshot s;
  s.flows = {flow(0, 0, 1, 100.0, 100.0)};
  s.vlinks = {vlink(0, 1, 1, LinkType::kBandwidthSaturated, 100.0, {0})};
  s.wlinks = {{{0, 1}, 0.9, 100.0}};
  index(cs, s, {{0, 1}});
  s.impairedFlows = {0};
  const auto report = engine.decide(s);
  EXPECT_EQ(report.sourceBufferViolations, 0);
  EXPECT_EQ(report.bandwidthViolations, 0);
  EXPECT_EQ(report.staleDecays, 1);
  ASSERT_EQ(report.commands.size(), 1u);
  EXPECT_NEAR(report.commands[0].limitPps, 50.0, 1e-9);
}

TEST(EngineEdgeCases, StaleNodeMasksItsVirtualLinksAndVnodes) {
  // Node 0 is stale: its vnode, its vlink and its wireless link drop out
  // of the checks, so the wide source-condition gap at node 1 is gone.
  const auto cs = ContentionStructure::build(chainTopo(3), {{0, 1}, {1, 2}});
  Engine engine{cs, GmpParams{}};
  Snapshot s;
  s.flows = {flow(0, 1, 2, 400.0, 400.0), flow(1, 0, 2, 100.0, 100.0)};
  s.vlinks = {vlink(0, 1, 2, LinkType::kBufferSaturated, 100.0, {1}),
              vlink(1, 2, 2, LinkType::kBandwidthSaturated, 400.0, {0})};
  s.wlinks = {{{0, 1}, 0.3, 100.0}, {{1, 2}, 0.6, 400.0}};
  index(cs, s, {{0, 2}, {1, 2}});
  EXPECT_EQ(engine.decide(s).sourceBufferViolations, 1);
  s.staleNodes = {0};
  s.impairedFlows = {1};
  const auto report = engine.decide(s);
  EXPECT_EQ(report.sourceBufferViolations, 0);
  EXPECT_EQ(report.staleDecays, 1);
}

TEST(EngineAlignment, MisalignedSnapshotThrows) {
  const auto cs = ContentionStructure::build(chainTopo(3), {{0, 1}, {1, 2}});
  const Engine engine{cs, GmpParams{}};
  Snapshot s;
  s.flows = {flow(0, 0, 2, 100.0, 100.0)};
  s.vlinks = {vlink(0, 1, 2, LinkType::kUnsaturated, 100.0, {0}),
              vlink(1, 2, 2, LinkType::kUnsaturated, 100.0, {0})};
  s.wlinks = {{{0, 1}, 0.2, 100.0}, {{1, 2}, 0.2, 100.0}};
  index(cs, s, {});
  EXPECT_NO_THROW((void)engine.decide(s));

  EXPECT_THROW((void)engine.decide(Snapshot{}), InvariantViolation);
  EXPECT_FALSE(Snapshot{}.isSaturated(0, 2));
  Snapshot noVlink = s;
  noVlink.vlinks.pop_back();
  EXPECT_THROW((void)engine.decide(noVlink), InvariantViolation);
  Snapshot noWlink = s;
  noWlink.wlinks.pop_back();
  EXPECT_THROW((void)engine.decide(noWlink), InvariantViolation);
  Snapshot extraFlow = s;
  extraFlow.flows.push_back(flow(1, 1, 2, 100.0, 100.0));
  EXPECT_THROW((void)engine.decide(extraFlow), InvariantViolation);
  Snapshot noSaturation = s;
  noSaturation.saturated.clear();
  EXPECT_THROW((void)engine.decide(noSaturation), InvariantViolation);
}

TEST(VirtualNetwork, ChainRows) {
  // Flows 0: 0->3 and 1: 1->3 on chain 0-1-2-3, and 2: 2->0 back.
  const auto cs = ContentionStructure::build(
      chainTopo(4), {{0, 1}, {1, 2}, {2, 3}, {2, 1}, {1, 0}});
  const auto vn = VirtualNetwork::build(
      cs, {spec(7, 0, 3), spec(3, 1, 3), spec(5, 2, 0)},
      {{0, 1, 2, 3}, {1, 2, 3}, {2, 1, 0}});
  using VNode = std::pair<topo::NodeId, topo::NodeId>;
  EXPECT_EQ(vn->vnodes, (std::vector<VNode>{{0, 3}, {1, 0}, {1, 3}, {2, 0},
                                            {2, 3}}));
  EXPECT_EQ(vn->vlinks,
            (std::vector<VirtualLinkKey>{{0, 1, 3}, {1, 0, 0}, {1, 2, 3},
                                         {2, 1, 0}, {2, 3, 3}}));
  EXPECT_EQ(vn->vlinkSender, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(vn->vlinkReceiver, (std::vector<int>{2, -1, 4, 1, -1}));
  EXPECT_EQ(vn->flowSource, (std::vector<int>{0, 2, 3}));
  const auto row = [](const VirtualNetwork::Rows& r, std::size_t i) {
    const auto span = r.row(i);
    return std::vector<std::size_t>(span.begin(), span.end());
  };
  EXPECT_EQ(row(vn->vlinkFlows, 2), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(row(vn->vnodeUpstream, 2), (std::vector<std::size_t>{0}));
  EXPECT_EQ(row(vn->vnodeUpstream, 4), (std::vector<std::size_t>{2}));
  EXPECT_EQ(row(vn->vnodeLocal, 2), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(row(vn->vnodeLocal, 4).empty());
  // Contention links sort as (0,1) (1,0) (1,2) (2,1) (2,3).
  EXPECT_EQ(row(vn->linkVlinks, 3), (std::vector<std::size_t>{3}));
  EXPECT_EQ(vn->vnodeId(2, 3), 4);
  EXPECT_EQ(vn->vnodeId(3, 3), -1);
  EXPECT_EQ(vn->flowIndex(5), 2);
  EXPECT_EQ(vn->flowIndex(4), -1);
}

}  // namespace
}  // namespace maxmin::gmp

