#include "scenarios/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <set>
#include <unordered_map>

#include "topology/routing.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace maxmin::scenarios {
namespace {

net::FlowSpec flow(net::FlowId id, topo::NodeId src, topo::NodeId dst,
                   double weight, double desiredPps, std::string name) {
  net::FlowSpec f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.weight = weight;
  f.desiredRate = PacketRate::perSecond(desiredPps);
  f.name = std::move(name);
  return f;
}

/// "f<n>", built by appending: GCC 12 at -O3 reports a false-positive
/// -Werror=restrict on the inlined `"f" + std::to_string(n)`.
std::string flowName(int n) {
  std::string name = "f";
  name += std::to_string(n);
  return name;
}

}  // namespace

Scenario fig2(std::vector<double> weights) {
  MAXMIN_CHECK(weights.size() == 4);
  // Coordinates chosen so that:
  //   * consecutive chain nodes are neighbors (<= 250 m);
  //   * (1,2) contends with (3,4) via dist(2,3)=350 and with (4,5) via
  //     dist(2,4)=545 (both <= 550);
  //   * (0,1) contends with nothing across the gap: dist(1,3)=570 > 550.
  Scenario s;
  const bool weighted =
      std::any_of(weights.begin(), weights.end(), [](double w) { return w != 1.0; });
  s.name = weighted ? "fig2-weighted" : "fig2";
  s.topology = topo::Topology::fromPositions({
      {0, 0},     // 0
      {220, 0},   // 1
      {440, 0},   // 2
      {790, 0},   // 3
      {985, 0},   // 4
      {1205, 0},  // 5
  });
  s.flows = {
      flow(0, 0, 1, weights[0], 800.0, "f1"),
      flow(1, 1, 2, weights[1], 800.0, "f2"),
      flow(2, 3, 4, weights[2], 800.0, "f3"),
      flow(3, 4, 5, weights[3], 800.0, "f4"),
  };
  return s;
}

Scenario fig3() {
  Scenario s;
  s.name = "fig3";
  s.topology = topo::Topology::fromPositions({
      {0, 0},
      {200, 0},
      {400, 0},
      {600, 0},
  });
  s.flows = {
      flow(0, 0, 3, 1.0, 800.0, "<0,3>"),
      flow(1, 1, 3, 1.0, 800.0, "<1,3>"),
      flow(2, 2, 3, 1.0, 800.0, "<2,3>"),
  };
  return s;
}

Scenario fig4() {
  // Four horizontal chains at vertical spacing 300: adjacent chains are
  // within carrier-sense range (300 <= 550), chains two apart are not
  // (600 > 550), so middle chains contend with two neighbors and side
  // chains with one.
  Scenario s;
  s.name = "fig4";
  std::vector<topo::Point> pts;
  for (int k = 0; k < 4; ++k) {
    const double y = 300.0 * k;
    pts.push_back({0, y});
    pts.push_back({200, y});
    pts.push_back({400, y});
  }
  s.topology = topo::Topology::fromPositions(std::move(pts));
  int id = 0;
  for (int k = 0; k < 4; ++k) {
    const topo::NodeId a = 3 * k;
    s.flows.push_back(
        flow(id, a, a + 2, 1.0, 800.0, flowName(id + 1)));
    ++id;
    s.flows.push_back(
        flow(id, a + 1, a + 2, 1.0, 800.0, flowName(id + 1)));
    ++id;
  }
  return s;
}

Scenario fig1() {
  // x=0, y=1, i=2, j=3, z=4, t=5, v=6 — the two flows of the paper's
  // Figure 1: f1: x->i->j->z->t and f2: y->i->j->v, sharing relay nodes
  // i and j. f1's four mutually-contending hops make its end-to-end rate
  // structurally low (its last link (z,t) is the bandwidth bottleneck:
  // everything upstream backpressures), while f2's shorter path could
  // carry far more — if queueing at i and j does not chain it to f1.
  // x and y sit symmetrically about the chain axis so they compete for
  // node i on equal MAC terms — the premise of the paper's Fig. 1(b)
  // analysis ("the source nodes x and y compete fairly for transmission
  // to i"). See EXPERIMENTS.md (E5) for why the full quantitative
  // contrast of Fig. 1 cannot be realized under a 2.2x carrier-sense
  // range, and for the source-queue variant that realizes it exactly.
  Scenario s;
  s.name = "fig1";
  s.topology = topo::Topology::fromPositions({
      {-170, 100},   // 0 = x
      {-170, -100},  // 1 = y
      {0, 0},        // 2 = i
      {200, 0},      // 3 = j
      {400, 0},      // 4 = z
      {600, 0},      // 5 = t
      {200, -200},   // 6 = v
  });
  s.flows = {
      flow(0, 0, 5, 1.0, 800.0, "f1"),  // x -> t
      flow(1, 1, 6, 1.0, 800.0, "f2"),  // y -> v
  };
  return s;
}

Scenario chain(int nodes, double spacing, double desiredPps) {
  MAXMIN_CHECK(nodes >= 2);
  Scenario s;
  s.name = "chain" + std::to_string(nodes);
  std::vector<topo::Point> pts;
  for (int i = 0; i < nodes; ++i) pts.push_back({spacing * i, 0});
  s.topology = topo::Topology::fromPositions(std::move(pts));
  s.flows = {flow(0, 0, nodes - 1, 1.0, desiredPps, "f1")};
  return s;
}

Scenario randomMesh(std::uint64_t seed, int nodes, double areaSide,
                    int numFlows, double desiredPps) {
  MAXMIN_CHECK(nodes >= 2);
  MAXMIN_CHECK(numFlows >= 1);
  Rng rng{seed};
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<topo::Point> pts;
    for (int i = 0; i < nodes; ++i) {
      pts.push_back({rng.uniformReal(0, areaSide), rng.uniformReal(0, areaSide)});
    }
    topo::Topology topo = topo::Topology::fromPositions(pts);

    // Sample distinct multi-hop connected (src, dst) pairs. The guard
    // counts *distinct* candidate pairs only: self-pairs and repeat
    // draws are pure rejections and must not burn the budget, or high
    // flow counts on small node sets spuriously fail (at numFlows near
    // n(n-1) the last few pairs each take O(n^2) draws to hit). Routing
    // trees are cached per destination — they depend only on the
    // topology, and recomputing a BFS per candidate made sampling
    // O(candidates * (n + edges)). Neither change touches the RNG draw
    // order, so fixed-seed meshes stay bit-identical.
    std::vector<net::FlowSpec> flows;
    std::set<std::pair<topo::NodeId, topo::NodeId>> tried;
    std::unordered_map<topo::NodeId, topo::RoutingTree> trees;
    const auto maxDistinct =
        static_cast<std::size_t>(nodes) * static_cast<std::size_t>(nodes - 1);
    while (static_cast<int>(flows.size()) < numFlows &&
           tried.size() < std::min<std::size_t>(1000, maxDistinct)) {
      const auto src = static_cast<topo::NodeId>(rng.uniformInt(0, nodes - 1));
      const auto dst = static_cast<topo::NodeId>(rng.uniformInt(0, nodes - 1));
      if (src == dst || !tried.insert({src, dst}).second) continue;
      auto it = trees.find(dst);
      if (it == trees.end()) {
        it = trees.emplace(dst, topo::RoutingTree::shortestPaths(topo, dst))
                 .first;
      }
      if (!it->second.reaches(src)) continue;
      const auto id = static_cast<net::FlowId>(flows.size());
      flows.push_back(flow(id, src, dst, 1.0, desiredPps,
                           flowName(id + 1)));
    }
    if (static_cast<int>(flows.size()) == numFlows) {
      Scenario s;
      s.name = "mesh" + std::to_string(seed);
      s.topology = std::move(topo);
      s.flows = std::move(flows);
      return s;
    }
  }
  MAXMIN_CHECK_MSG(false, "could not sample a connected random mesh");
  throw InvariantViolation("unreachable");
}

double meshSideForDegree(int nodes, double targetDegree) {
  MAXMIN_CHECK(nodes >= 2);
  MAXMIN_CHECK(targetDegree > 0.0);
  const double txRange = topo::RadioRanges{}.txRange;
  return std::sqrt(nodes * std::numbers::pi * txRange * txRange /
                   targetDegree);
}

Scenario denseMesh(std::uint64_t seed, int nodes, int numFlows,
                   double desiredPps) {
  Scenario s = randomMesh(seed, nodes, meshSideForDegree(nodes, 12.0),
                          numFlows, desiredPps);
  s.name = "dense" + std::to_string(nodes) + "-" + std::to_string(seed);
  return s;
}

topo::NodeId firstRelayNode(const Scenario& scenario) {
  for (const net::FlowSpec& f : scenario.flows) {
    const auto tree = topo::RoutingTree::shortestPaths(scenario.topology, f.dst);
    const auto path = tree.pathFrom(f.src);
    if (path.size() >= 3) return path[1];
  }
  MAXMIN_CHECK_MSG(false,
                   "scenario " << scenario.name << " has no multi-hop flow");
  throw InvariantViolation("unreachable");
}

sim::FaultScript midSessionRelayCrash(const Scenario& scenario,
                                      Duration crashAt, Duration outage) {
  MAXMIN_CHECK(outage > Duration::zero());
  const topo::NodeId victim = firstRelayNode(scenario);
  sim::FaultScript script;
  sim::FaultEvent crash;
  crash.at = TimePoint::origin() + crashAt;
  crash.kind = sim::FaultEvent::Kind::kNodeDown;
  crash.node = victim;
  sim::FaultEvent recover = crash;
  recover.at = crash.at + outage;
  recover.kind = sim::FaultEvent::Kind::kNodeUp;
  script.events = {crash, recover};
  return script;
}

}  // namespace maxmin::scenarios
