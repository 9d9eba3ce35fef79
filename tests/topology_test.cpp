#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <span>

#include "scenarios/scenarios.hpp"
#include "topology/cliques.hpp"
#include "topology/conflict_graph.hpp"
#include "topology/dominating_set.hpp"
#include "topology/routing.hpp"
#include "topology/spatial_grid.hpp"
#include "topology/topology.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace maxmin::topo {
namespace {

Topology chain(int n, double spacing, RadioRanges ranges = {}) {
  std::vector<Point> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({spacing * i, 0.0});
  }
  return Topology::fromPositions(std::move(pts), ranges);
}

std::vector<NodeId> toVec(std::span<const NodeId> row) {
  return {row.begin(), row.end()};
}

TEST(Topology, NeighborRelationIsSymmetricAndRangeBased) {
  const Topology t = chain(4, 200.0);
  EXPECT_TRUE(t.areNeighbors(0, 1));
  EXPECT_TRUE(t.areNeighbors(1, 0));
  EXPECT_FALSE(t.areNeighbors(0, 2));  // 400 m > 250 m
  EXPECT_FALSE(t.areNeighbors(2, 2));
  EXPECT_EQ(toVec(t.neighbors(1)), (std::vector<NodeId>{0, 2}));
}

TEST(Topology, CarrierSenseRangeExceedsTxRange) {
  const Topology t = chain(4, 200.0);
  EXPECT_TRUE(t.inCsRange(0, 2));   // 400 <= 550
  EXPECT_FALSE(t.inCsRange(0, 3));  // 600 > 550
}

TEST(Topology, TwoHopNeighborhood) {
  const Topology t = chain(6, 200.0);
  EXPECT_EQ(t.twoHopNeighborhood(0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(t.twoHopNeighborhood(2), (std::vector<NodeId>{0, 1, 3, 4}));
}

TEST(Topology, RejectsCsSmallerThanTx) {
  EXPECT_THROW(
      Topology::fromPositions({{0, 0}, {1, 1}}, RadioRanges{250.0, 100.0}),
      InvariantViolation);
}

TEST(ConflictGraph, SharedEndpointAlwaysConflicts) {
  const Topology t = chain(5, 200.0);
  EXPECT_TRUE(ConflictGraph::linksConflict(t, Link{0, 1}, Link{1, 2}));
  EXPECT_TRUE(ConflictGraph::linksConflict(t, Link{0, 1}, Link{2, 1}));
}

TEST(ConflictGraph, CsRangeEndpointConflicts) {
  const Topology t = chain(6, 200.0);
  // (0,1) vs (2,3): endpoint 1 and 2 are 200 m apart -> conflict.
  EXPECT_TRUE(ConflictGraph::linksConflict(t, Link{0, 1}, Link{2, 3}));
  // (0,1) vs (4,5): closest endpoints 1 and 4 are 600 m apart -> no conflict.
  EXPECT_FALSE(ConflictGraph::linksConflict(t, Link{0, 1}, Link{4, 5}));
}

TEST(ConflictGraph, AdjacencyMatchesPairwisePredicate) {
  const Topology t = chain(6, 200.0);
  const std::vector<Link> links{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
  const ConflictGraph g{t, links};
  for (int a = 0; a < g.numLinks(); ++a) {
    for (int b = 0; b < g.numLinks(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(g.conflicts(a, b),
                ConflictGraph::linksConflict(
                    t, g.links()[static_cast<std::size_t>(a)],
                    g.links()[static_cast<std::size_t>(b)]));
    }
  }
}

TEST(ConflictGraph, RejectsNonNeighborLink) {
  const Topology t = chain(3, 200.0);
  EXPECT_THROW((ConflictGraph{t, {Link{0, 2}}}), InvariantViolation);
}

TEST(ConflictGraph, RejectsDuplicateLinks) {
  const Topology t = chain(3, 200.0);
  EXPECT_THROW((ConflictGraph{t, {Link{0, 1}, Link{0, 1}}}),
               InvariantViolation);
}

TEST(ConflictGraph, IndexOfFindsSortedLinks) {
  const Topology t = chain(4, 200.0);
  const ConflictGraph g{t, {Link{2, 3}, Link{0, 1}}};
  EXPECT_EQ(g.indexOf(Link{0, 1}), 0);
  EXPECT_EQ(g.indexOf(Link{2, 3}), 1);
  EXPECT_EQ(g.indexOf(Link{1, 2}), -1);
}

// --- cliques ---------------------------------------------------------------

bool isClique(const ConflictGraph& g, const std::vector<int>& members) {
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (!g.conflicts(members[i], members[j])) return false;
    }
  }
  return true;
}

bool isMaximal(const ConflictGraph& g, const std::vector<int>& members) {
  for (int v = 0; v < g.numLinks(); ++v) {
    if (std::find(members.begin(), members.end(), v) != members.end())
      continue;
    bool extends = true;
    for (int m : members) {
      if (!g.conflicts(v, m)) {
        extends = false;
        break;
      }
    }
    if (extends) return false;
  }
  return true;
}

TEST(Cliques, ChainOfFiveLinks) {
  const Topology t = chain(6, 200.0);
  const std::vector<Link> links{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
  const ConflictGraph g{t, links};
  const auto cliques = enumerateMaximalCliques(g);
  for (const Clique& c : cliques) {
    EXPECT_TRUE(isClique(g, c.linkIndices));
    EXPECT_TRUE(isMaximal(g, c.linkIndices));
  }
  // Every link covered.
  std::set<int> covered;
  for (const Clique& c : cliques)
    covered.insert(c.linkIndices.begin(), c.linkIndices.end());
  EXPECT_EQ(covered.size(), links.size());
}

TEST(Cliques, IsolatedLinkFormsSingletonClique) {
  // Two far-apart pairs.
  const Topology t = Topology::fromPositions(
      {{0, 0}, {200, 0}, {5000, 0}, {5200, 0}});
  const ConflictGraph g{t, {Link{0, 1}, Link{2, 3}}};
  const auto cliques = enumerateMaximalCliques(g);
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_EQ(cliques[0].linkIndices.size(), 1u);
  EXPECT_EQ(cliques[1].linkIndices.size(), 1u);
}

TEST(Cliques, IdsAreUniqueAndOwnedBySmallestNode) {
  const Topology t = chain(6, 200.0);
  const ConflictGraph g{t, {Link{0, 1}, Link{1, 2}, Link{2, 3}, Link{3, 4},
                            Link{4, 5}}};
  const auto cliques = enumerateMaximalCliques(g);
  std::set<std::pair<NodeId, int>> ids;
  for (const Clique& c : cliques) {
    ids.insert({c.id.owner, c.id.sequence});
    NodeId smallest = kNoNode;
    for (int idx : c.linkIndices) {
      const Link& l = g.links()[static_cast<std::size_t>(idx)];
      const NodeId lo = std::min(l.from, l.to);
      if (smallest == kNoNode || lo < smallest) smallest = lo;
    }
    EXPECT_EQ(c.id.owner, smallest);
  }
  EXPECT_EQ(ids.size(), cliques.size());
}

TEST(Cliques, ByLinkIndexIsConsistent) {
  const Topology t = chain(6, 200.0);
  const ConflictGraph g{t, {Link{0, 1}, Link{1, 2}, Link{2, 3}, Link{3, 4},
                            Link{4, 5}}};
  const auto cliques = enumerateMaximalCliques(g);
  const auto byLink = cliquesByLink(g, cliques);
  ASSERT_EQ(byLink.size(), static_cast<std::size_t>(g.numLinks()));
  for (int l = 0; l < g.numLinks(); ++l) {
    EXPECT_FALSE(byLink[static_cast<std::size_t>(l)].empty());
    for (int c : byLink[static_cast<std::size_t>(l)]) {
      const auto& m = cliques[static_cast<std::size_t>(c)].linkIndices;
      EXPECT_TRUE(std::find(m.begin(), m.end(), l) != m.end());
    }
  }
}

// Property test: on random geometric topologies every enumerated clique is
// a maximal clique, and a brute-force check finds no maximal clique the
// enumeration missed (small instances).
class CliquePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CliquePropertyTest, MatchesBruteForceOnRandomTopologies) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  std::vector<Point> pts;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniformReal(0, 900), rng.uniformReal(0, 900)});
  }
  const Topology t = Topology::fromPositions(pts);
  std::vector<Link> links;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b : t.neighbors(a)) {
      if (a < b) links.push_back(Link{a, b});
    }
  }
  if (links.empty()) return;
  const ConflictGraph g{t, links};
  const auto cliques = enumerateMaximalCliques(g);

  for (const Clique& c : cliques) {
    EXPECT_TRUE(isClique(g, c.linkIndices));
    EXPECT_TRUE(isMaximal(g, c.linkIndices));
  }

  // Brute force over all subsets (numLinks is small for n=8).
  if (g.numLinks() <= 16) {
    std::set<std::vector<int>> enumerated;
    for (const Clique& c : cliques) enumerated.insert(c.linkIndices);
    const int m = g.numLinks();
    for (int mask = 1; mask < (1 << m); ++mask) {
      std::vector<int> members;
      for (int v = 0; v < m; ++v) {
        if (mask & (1 << v)) members.push_back(v);
      }
      if (isClique(g, members) && isMaximal(g, members)) {
        EXPECT_TRUE(enumerated.contains(members))
            << "brute force found a maximal clique the enumeration missed";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CliquePropertyTest,
                         ::testing::Range(1, 21));

/// Reference oracle: classic Bron-Kerbosch with pivoting over sorted
/// vertex vectors. Conflict lists come straight from the pairwise
/// predicate, so the oracle shares nothing with the packed rows.
class SortedVectorBronKerbosch {
 public:
  SortedVectorBronKerbosch(const Topology& topo, const ConflictGraph& graph) {
    const std::vector<Link>& links = graph.links();
    neighbors_.resize(links.size());
    for (std::size_t v = 0; v < links.size(); ++v) {
      for (std::size_t u = 0; u < links.size(); ++u) {
        if (u != v && ConflictGraph::linksConflict(topo, links[v], links[u])) {
          neighbors_[v].push_back(static_cast<int>(u));
        }
      }
    }
  }

  std::vector<std::vector<int>> run() {
    std::vector<int> all(neighbors_.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    expand({}, all, {});
    return std::move(found_);
  }

 private:
  static std::vector<int> intersect(const std::vector<int>& a,
                                    const std::vector<int>& b) {
    std::vector<int> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
  }

  void expand(std::vector<int> r, std::vector<int> p, std::vector<int> x) {
    if (p.empty() && x.empty()) {
      found_.push_back(std::move(r));
      return;
    }
    int pivot = -1;
    std::size_t best = 0;
    for (const auto* set : {&p, &x}) {
      for (int v : *set) {
        const std::size_t k =
            intersect(p, neighbors_[static_cast<std::size_t>(v)]).size();
        if (pivot == -1 || k > best) {
          pivot = v;
          best = k;
        }
      }
    }
    const auto& pivotNeighbors = neighbors_[static_cast<std::size_t>(pivot)];
    std::vector<int> candidates;
    std::set_difference(p.begin(), p.end(), pivotNeighbors.begin(),
                        pivotNeighbors.end(), std::back_inserter(candidates));
    for (int v : candidates) {
      const auto& nv = neighbors_[static_cast<std::size_t>(v)];
      std::vector<int> r2 = r;
      r2.insert(std::lower_bound(r2.begin(), r2.end(), v), v);
      expand(std::move(r2), intersect(p, nv), intersect(x, nv));
      p.erase(std::lower_bound(p.begin(), p.end(), v));
      x.insert(std::lower_bound(x.begin(), x.end(), v), v);
    }
  }

  std::vector<std::vector<int>> neighbors_;
  std::vector<std::vector<int>> found_;
};

// The packed rows span several words once a graph has more than 64 links;
// the bitset enumeration must find exactly the oracle's maximal cliques
// with two- and three-word rows.
class MultiWordCliqueTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiWordCliqueTest, MatchesSortedVectorOracle) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 104729 + 3};
  std::vector<Point> pts;
  for (int i = 0; i < 80; ++i) {
    pts.push_back({rng.uniformReal(0, 2000), rng.uniformReal(0, 2000)});
  }
  const Topology t = Topology::fromPositions(std::move(pts));
  std::vector<Link> all;
  for (NodeId a = 0; a < t.numNodes(); ++a) {
    for (NodeId b : t.neighbors(a)) all.push_back(Link{a, b});
  }
  // Random subsets: 65..128 links (two words) and 129..192 (three).
  for (const std::size_t words : {2u, 3u}) {
    const auto size = static_cast<std::size_t>(
        rng.uniformInt(static_cast<std::int64_t>(64 * words - 63),
                       static_cast<std::int64_t>(64 * words)));
    ASSERT_GE(all.size(), size);
    for (std::size_t i = 0; i < size; ++i) {
      const auto j = static_cast<std::size_t>(rng.uniformInt(
          static_cast<std::int64_t>(i),
          static_cast<std::int64_t>(all.size()) - 1));
      std::swap(all[i], all[j]);
    }
    const ConflictGraph g{
        t, {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(size)}};
    ASSERT_EQ(g.wordsPerRow(), words);

    std::set<std::vector<int>> enumerated;
    for (const Clique& c : enumerateMaximalCliques(g)) {
      EXPECT_TRUE(enumerated.insert(c.linkIndices).second) << "duplicate";
    }
    const auto oracle = SortedVectorBronKerbosch{t, g}.run();
    const std::set<std::vector<int>> expected{oracle.begin(), oracle.end()};
    EXPECT_EQ(oracle.size(), expected.size());
    EXPECT_EQ(enumerated, expected) << size << " links";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiWordCliqueTest, ::testing::Range(1, 9));

// Byte-identity pin: the all-flow contention links of one fixed dense
// scenario (the dense800_hybrid benchmark's first topology) give this
// exact canonical clique list.
TEST(Cliques, DenseMeshAllFlowCliquesArePinned) {
  const scenarios::Scenario sc = scenarios::denseMesh(1, 800, 100);
  std::set<Link> linkSet;
  for (const auto& f : sc.flows) {
    const auto path = RoutingTree::shortestPaths(sc.topology, f.dst)
                          .pathFrom(f.src);
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      linkSet.insert(Link{path[h], path[h + 1]});
    }
  }
  const ConflictGraph g{sc.topology, {linkSet.begin(), linkSet.end()}};
  const auto cliques = enumerateMaximalCliques(g);
  std::uint64_t h = 0;
  for (const Clique& c : cliques) {
    h = mix64(h ^ static_cast<std::uint64_t>(c.id.owner));
    h = mix64(h ^ static_cast<std::uint64_t>(c.id.sequence));
    for (int idx : c.linkIndices) {
      h = mix64(h ^ static_cast<std::uint64_t>(idx));
    }
  }
  EXPECT_EQ(g.numLinks(), 673);
  EXPECT_EQ(cliques.size(), 1536u);
  EXPECT_EQ(h, 0xb6e19d95ee52c643ull) << std::hex << h;
}

// --- dominating sets ---------------------------------------------------------

class DominatingSetPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DominatingSetPropertyTest, CoversTwoHopNeighborhood) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 977 + 5};
  std::vector<Point> pts;
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniformReal(0, 700), rng.uniformReal(0, 700)});
  }
  const Topology t = Topology::fromPositions(pts);
  for (NodeId center = 0; center < n; ++center) {
    const auto relays = computeDominatingSet(t, center);
    // All relays are one-hop neighbors.
    const auto& oneHop = t.neighbors(center);
    for (NodeId r : relays) {
      EXPECT_TRUE(std::binary_search(oneHop.begin(), oneHop.end(), r));
    }
    // Coverage: relayed broadcast reaches the whole 2-hop neighborhood.
    const auto covered = relayCoverage(t, center, relays);
    const auto target = t.twoHopNeighborhood(center);
    EXPECT_TRUE(std::includes(covered.begin(), covered.end(), target.begin(),
                              target.end()))
        << "dominating set of node " << center << " misses 2-hop neighbors";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominatingSetPropertyTest,
                         ::testing::Range(1, 16));

TEST(DominatingSet, ChainPicksSingleRelayPerSide) {
  const Topology t = chain(5, 200.0);
  // Node 2's two-hop neighbors {0,4} are covered via relays {1,3}.
  EXPECT_EQ(computeDominatingSet(t, 2), (std::vector<NodeId>{1, 3}));
  // Node 0: two-hop neighbor {2} via relay {1}.
  EXPECT_EQ(computeDominatingSet(t, 0), (std::vector<NodeId>{1}));
}

// --- routing -----------------------------------------------------------------

TEST(Routing, ChainPaths) {
  const Topology t = chain(4, 200.0);
  const RoutingTree r = RoutingTree::shortestPaths(t, 3);
  EXPECT_EQ(r.nextHop(0), 1);
  EXPECT_EQ(r.nextHop(1), 2);
  EXPECT_EQ(r.nextHop(2), 3);
  EXPECT_EQ(r.nextHop(3), kNoNode);
  EXPECT_EQ(r.pathFrom(0), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(r.hopCount(0), 3);
  EXPECT_EQ(r.hopCount(3), 0);
  EXPECT_TRUE(r.reaches(3));
}

TEST(Routing, UnreachableNodes) {
  const Topology t = Topology::fromPositions({{0, 0}, {200, 0}, {5000, 0}});
  const RoutingTree r = RoutingTree::shortestPaths(t, 0);
  EXPECT_TRUE(r.reaches(1));
  EXPECT_FALSE(r.reaches(2));
  EXPECT_EQ(r.hopCount(2), -1);
  EXPECT_TRUE(r.pathFrom(2).empty());
}

TEST(Routing, ShortestPathLengthOnGrid) {
  // 3x3 grid with 200 m spacing: diagonal corner is 4 hops away.
  std::vector<Point> pts;
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) pts.push_back({x * 200.0, y * 200.0});
  }
  const Topology t = Topology::fromPositions(pts);
  const RoutingTree r = RoutingTree::shortestPaths(t, 8);
  EXPECT_EQ(r.hopCount(0), 4);
  EXPECT_EQ(r.hopCount(4), 2);
}

class RoutingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RoutingPropertyTest, TreesAreAcyclicAndShortest) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 31 + 7};
  std::vector<Point> pts;
  const int n = 15;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniformReal(0, 800), rng.uniformReal(0, 800)});
  }
  const Topology t = Topology::fromPositions(pts);
  for (NodeId dest = 0; dest < n; ++dest) {
    const RoutingTree r = RoutingTree::shortestPaths(t, dest);
    for (NodeId from = 0; from < n; ++from) {
      if (!r.reaches(from)) continue;
      const auto path = r.pathFrom(from);  // throws on loops
      // Hop count decreases by exactly one along the path (shortest).
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_EQ(r.hopCount(path[i]), r.hopCount(path[i + 1]) + 1);
        EXPECT_TRUE(t.areNeighbors(path[i], path[i + 1]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingPropertyTest, ::testing::Range(1, 11));

// The membership predicates must agree with the geometric ranges the old
// per-call sqrt path computed: 50 random meshes, all ordered pairs.
TEST(AdjacencyMatrix, MatchesDistancePredicatesOnRandomMeshes) {
  Rng rng{2024};
  for (int mesh = 0; mesh < 50; ++mesh) {
    const int n = static_cast<int>(rng.uniformInt(2, 40));
    std::vector<Point> pts;
    pts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      pts.push_back({rng.uniformReal(0, 1500), rng.uniformReal(0, 1500)});
    }
    const Topology t = Topology::fromPositions(std::move(pts));
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        const bool expectTx =
            a != b && t.distanceBetween(a, b) <= t.ranges().txRange;
        const bool expectCs =
            a != b && t.distanceBetween(a, b) <= t.ranges().csRange;
        ASSERT_EQ(t.areNeighbors(a, b), expectTx)
            << "mesh " << mesh << " tx pair " << a << "," << b;
        ASSERT_EQ(t.inCsRange(a, b), expectCs)
            << "mesh " << mesh << " cs pair " << a << "," << b;
      }
    }
  }
}

// twoHopNeighborhood is memoized (lazily, on first touch): repeated calls
// return the same object (no recompute, no allocation) with ascending
// contents.
TEST(Topology, TwoHopNeighborhoodIsMemoized) {
  const Topology t = chain(6, 200.0);
  const std::vector<NodeId>& first = t.twoHopNeighborhood(2);
  const std::vector<NodeId>& second = t.twoHopNeighborhood(2);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first, (std::vector<NodeId>{0, 1, 3, 4}));
}

// --- spatial grid ------------------------------------------------------------

// The grid-bucketed construction must reproduce the brute-force O(n^2)
// predicate exactly: same membership (including dSq <= rangeSq boundary
// ties at exactly txRange/csRange) and same ascending row order. Each
// random layout is salted with hostile geometry: co-located nodes, a
// pair at exactly txRange, a pair at exactly csRange, and nodes pinned
// to cell-boundary coordinates (multiples of csRange).
class SpatialGridPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SpatialGridPropertyTest, MatchesBruteForceRelations) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 7919 + 13};
  const RadioRanges ranges{};
  for (int mesh = 0; mesh < 8; ++mesh) {
    const int base = static_cast<int>(rng.uniformInt(2, 60));
    std::vector<Point> pts;
    for (int i = 0; i < base; ++i) {
      pts.push_back({rng.uniformReal(0, 2500), rng.uniformReal(0, 2500)});
    }
    // Hostile geometry. Integer coordinates make the boundary distances
    // exact in double arithmetic, so these pairs sit precisely on the
    // dSq <= rangeSq tie.
    pts.push_back(pts[0]);                                  // co-located
    pts.push_back({pts[1].x + ranges.txRange, pts[1].y});   // exactly tx
    pts.push_back({pts[2].x, pts[2].y + ranges.csRange});   // exactly cs
    pts.push_back({ranges.csRange, ranges.csRange});        // cell corner
    pts.push_back({2 * ranges.csRange, 0.0});               // cell edge
    const int n = static_cast<int>(pts.size());

    const Topology t = Topology::fromPositions(pts, ranges);
    const double txSq = ranges.txRange * ranges.txRange;
    const double csSq = ranges.csRange * ranges.csRange;
    for (NodeId a = 0; a < n; ++a) {
      std::vector<NodeId> bruteTx;
      std::vector<NodeId> bruteCs;
      for (NodeId b = 0; b < n; ++b) {
        if (a == b) continue;
        const double dSq = distanceSquared(pts[static_cast<std::size_t>(a)],
                                           pts[static_cast<std::size_t>(b)]);
        if (dSq <= txSq) bruteTx.push_back(b);
        if (dSq <= csSq) bruteCs.push_back(b);
      }
      ASSERT_EQ(toVec(t.neighbors(a)), bruteTx) << "tx row of " << a;
      ASSERT_EQ(toVec(t.csNeighbors(a)), bruteCs) << "cs row of " << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpatialGridPropertyTest,
                         ::testing::Range(1, 13));

TEST(SpatialGrid, CandidateBlockCoversQueryRadius) {
  // Every node within cellSide of a query point must be visited by
  // forEachCandidate (the 3x3 block invariant the construction relies
  // on), including nodes in far-apart cells that must not be visited.
  Rng rng{71};
  std::vector<Point> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniformReal(0, 5000), rng.uniformReal(0, 5000)});
  }
  const double side = 550.0;
  const SpatialGrid grid{pts, side};
  for (int q = 0; q < 200; ++q) {
    const Point p = pts[static_cast<std::size_t>(q)];
    std::set<NodeId> visited;
    grid.forEachCandidate(p.x, p.y, [&](NodeId b) { visited.insert(b); });
    for (NodeId b = 0; b < 200; ++b) {
      if (distanceSquared(p, pts[static_cast<std::size_t>(b)]) <=
          side * side) {
        EXPECT_TRUE(visited.contains(b))
            << "node " << b << " within cellSide of " << q << " not visited";
      }
    }
  }
}

TEST(SpatialGrid, CoarsensCellsWhenPositionsAreSpreadOut) {
  // Two nodes a million meters apart with a 550 m cell side would naively
  // need ~3.3M cells; the grid coarsens until the cell table is O(n).
  const SpatialGrid grid{{{0.0, 0.0}, {1e6, 1e6}}, 550.0};
  EXPECT_LE(static_cast<long long>(grid.cellsX()) * grid.cellsY(), 9);
}

// --- CSR rows ----------------------------------------------------------------

// The CSR rows are the only representation of both relations: each row
// is strictly ascending, the tx row is a subset of the cs row, and the
// membership predicates (binary searches of the rows) answer exactly the
// rows' contents, for every ordered pair on a > 64-node mesh.
TEST(Topology, PredicatesMatchCsrRows) {
  Rng rng{2025};
  std::vector<Point> pts;
  for (int i = 0; i < 70; ++i) {
    pts.push_back({rng.uniformReal(0, 1500), rng.uniformReal(0, 1500)});
  }
  const Topology t = Topology::fromPositions(std::move(pts));
  std::int64_t txEntries = 0;
  for (NodeId a = 0; a < t.numNodes(); ++a) {
    const std::vector<NodeId> tx = toVec(t.neighbors(a));
    const std::vector<NodeId> cs = toVec(t.csNeighbors(a));
    EXPECT_TRUE(std::adjacent_find(tx.begin(), tx.end(),
                                   std::greater_equal<>{}) == tx.end());
    EXPECT_TRUE(std::adjacent_find(cs.begin(), cs.end(),
                                   std::greater_equal<>{}) == cs.end());
    EXPECT_TRUE(std::includes(cs.begin(), cs.end(), tx.begin(), tx.end()));
    txEntries += static_cast<std::int64_t>(tx.size());
    for (NodeId b = 0; b < t.numNodes(); ++b) {
      ASSERT_EQ(t.areNeighbors(a, b), std::ranges::count(tx, b) == 1)
          << a << "," << b;
      ASSERT_EQ(t.inCsRange(a, b), std::ranges::count(cs, b) == 1)
          << a << "," << b;
    }
  }
  EXPECT_EQ(t.numEdges() * 2, txEntries);
  EXPECT_GT(t.numEdges(), 0);
}

TEST(Topology, SparseModeMemoryIsEdgeBound) {
  // The footprint must track nodes + edges, not n^2 bits: at N = 3000
  // two n^2-bit relations alone would cost 2 * 3000^2 / 8 = 2.25 MB; the
  // CSR build must stay well under that.
  Rng rng{4242};
  std::vector<Point> pts;
  const int n = 3000;
  // Area sized for ~12 tx-degree (the denseMesh recipe): degree =
  // n * pi * txRange^2 / side^2.
  const double txRange = RadioRanges{}.txRange;
  const double side =
      std::sqrt(n * 3.14159265358979 * txRange * txRange / 12.0);
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniformReal(0, side), rng.uniformReal(0, side)});
  }
  const Topology t = Topology::fromPositions(std::move(pts));
  const std::size_t denseBits = 2ull * n * ((n + 63) / 64) * 8;
  EXPECT_LT(t.memoryFootprintBytes(), denseBits);
  // And the CSR arrays really hold both relations.
  EXPECT_GT(t.numEdges(), 0);
}

}  // namespace
}  // namespace maxmin::topo
