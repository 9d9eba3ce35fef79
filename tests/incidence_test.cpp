// Property test for topo::FlowIncidence: every CSR view must agree with
// the dense clique × flow traversal table the solvers used to build
// privately (one std::set<Link> membership scan per clique, flow and
// hop), and every row must list its entries in ascending inner index —
// the order the fluid solver, the maxmin reference and 2PP sum in.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/flow.hpp"
#include "scenarios/scenarios.hpp"
#include "topology/contention.hpp"

namespace maxmin::topo {
namespace {

using Paths = std::vector<std::vector<NodeId>>;
using Dense = std::vector<std::vector<int>>;

/// Reference: dense[c][i] = links of path i inside clique c.
Dense denseTraversals(const ContentionStructure& cs, const Paths& paths) {
  Dense dense(cs.cliques.size(), std::vector<int>(paths.size(), 0));
  for (std::size_t c = 0; c < cs.cliques.size(); ++c) {
    std::set<Link> members;
    for (int li : cs.cliques[c].linkIndices) {
      members.insert(cs.links[static_cast<std::size_t>(li)]);
    }
    for (std::size_t i = 0; i < paths.size(); ++i) {
      for (std::size_t h = 0; h + 1 < paths[i].size(); ++h) {
        if (members.contains(Link{paths[i][h], paths[i][h + 1]})) {
          ++dense[c][i];
        }
      }
    }
  }
  return dense;
}

/// Reference: dense[l][i] = times path i crosses link l.
Dense denseLinkCrossings(const ContentionStructure& cs, const Paths& paths) {
  Dense dense(cs.links.size(), std::vector<int>(paths.size(), 0));
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t h = 0; h + 1 < paths[i].size(); ++h) {
      const Link l{paths[i][h], paths[i][h + 1]};
      for (std::size_t li = 0; li < cs.links.size(); ++li) {
        if (cs.links[li] == l) ++dense[li][i];
      }
    }
  }
  return dense;
}

/// Expands a CSR side to dense form; `transposed` writes [inner][row].
/// Fails the test if a row is not strictly ascending or holds a zero.
Dense expand(const IncidenceCsr& csr, std::size_t innerSize,
             bool transposed) {
  const std::size_t rows = csr.rows();
  Dense dense = transposed ? Dense(innerSize, std::vector<int>(rows, 0))
                           : Dense(rows, std::vector<int>(innerSize, 0));
  for (std::size_t r = 0; r < rows; ++r) {
    std::int32_t prev = -1;
    for (const auto& [inner, count] : csr.row(r)) {
      EXPECT_GT(inner, prev) << "row " << r << " not ascending";
      EXPECT_GT(count, 0) << "row " << r << " stores a zero";
      EXPECT_LT(static_cast<std::size_t>(inner), innerSize);
      prev = inner;
      auto& cell = transposed ? dense[static_cast<std::size_t>(inner)][r]
                              : dense[r][static_cast<std::size_t>(inner)];
      cell = count;
    }
  }
  return dense;
}

void expectMatchesDenseReference(const scenarios::Scenario& sc) {
  SCOPED_TRACE(sc.name);
  const Paths paths = net::routeFlows(sc.topology, sc.flows);
  const auto cs = ContentionStructure::build(sc.topology, linksOnPaths(paths));
  const auto inc = FlowIncidence::build(cs, paths);
  const std::size_t n = paths.size();
  const std::size_t m = cs.cliques.size();

  ASSERT_EQ(inc.cliqueFlows.rows(), m);
  ASSERT_EQ(inc.flowCliques.rows(), n);
  ASSERT_EQ(inc.linkFlows.rows(), cs.links.size());
  const Dense traversals = denseTraversals(cs, paths);
  EXPECT_EQ(expand(inc.cliqueFlows, n, false), traversals);
  EXPECT_EQ(expand(inc.flowCliques, m, true), traversals);
  EXPECT_EQ(expand(inc.linkFlows, n, false), denseLinkCrossings(cs, paths));

  ASSERT_EQ(inc.hopLinks.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(inc.hopLinks[i].size() + 1, paths[i].size());
    for (std::size_t h = 0; h < inc.hopLinks[i].size(); ++h) {
      EXPECT_EQ(cs.links[static_cast<std::size_t>(inc.hopLinks[i][h])],
                (Link{paths[i][h], paths[i][h + 1]}));
    }
  }
}

TEST(FlowIncidence, MatchesDenseTraversalsOnPaperScenarios) {
  expectMatchesDenseReference(scenarios::fig2());
  expectMatchesDenseReference(scenarios::fig3());
  expectMatchesDenseReference(scenarios::fig4());
  expectMatchesDenseReference(scenarios::chain(6));
}

TEST(FlowIncidence, MatchesDenseTraversalsOnRandomMeshes) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const int nodes = 20 + static_cast<int>(seed % 4) * 10;
    expectMatchesDenseReference(scenarios::randomMesh(
        seed, nodes, scenarios::meshSideForDegree(nodes, 8.0), 8));
  }
}

TEST(FlowIncidence, RejectsHopOutsideTheContentionLinks) {
  const auto sc = scenarios::chain(4);
  const auto cs = ContentionStructure::build(sc.topology, {{0, 1}});
  EXPECT_THROW(FlowIncidence::build(cs, {{0, 1, 2}}), InvariantViolation);
}

TEST(LinksOnPaths, SortedAndDistinct) {
  const Paths paths{{0, 1, 2}, {2, 1, 0}, {0, 1}};
  EXPECT_EQ(linksOnPaths(paths),
            (std::vector<Link>{{0, 1}, {1, 0}, {1, 2}, {2, 1}}));
}

}  // namespace
}  // namespace maxmin::topo
