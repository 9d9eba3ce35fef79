// The clique × flow incidence every solver reads (paper §3.3, §5.3):
// ContentionStructure holds the links and their maximal cliques;
// FlowIncidence counts, in CSR form, how many links of each routed path
// fall inside each clique. The GMP engine, the fluid solver, the maxmin
// reference and 2PP all share them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "topology/cliques.hpp"
#include "topology/link.hpp"
#include "topology/topology.hpp"

namespace maxmin::topo {

/// Static contention structure shared by all periods: the conflict graph
/// over the network's active wireless links and its maximal cliques
/// (paper §3.3; precomputed from 2-hop topology after deployment, §6.3).
struct ContentionStructure {
  std::vector<Link> links;                        ///< sorted
  std::vector<Clique> cliques;                    ///< over indices in links
  std::vector<std::vector<int>> cliquesOfLink;    ///< link idx -> clique idxs

  static ContentionStructure build(const Topology& topo,
                                   std::vector<Link> links);

  [[nodiscard]] int linkIndex(Link l) const;
};

/// `extra` plus the links the paths cross (consecutive node pairs), sorted
/// and distinct.
std::vector<Link> linksOnPaths(const std::vector<std::vector<NodeId>>& paths,
                               std::vector<Link> extra = {});

/// One CSR side of the incidence: row r lists (inner index, multiplicity)
/// pairs in ascending inner index. Pairs with multiplicity 0 are absent.
struct IncidenceCsr {
  struct Entry {
    std::int32_t index = 0;
    std::int32_t count = 0;
  };
  std::vector<std::int32_t> offset{0};  ///< rows + 1
  std::vector<Entry> entries;

  [[nodiscard]] std::size_t rows() const { return offset.size() - 1; }
  [[nodiscard]] std::span<const Entry> row(std::size_t r) const {
    return {entries.data() + offset[r], entries.data() + offset[r + 1]};
  }
};

struct FlowIncidence {
  /// hopLinks[flow][hop]: contention link index of that hop.
  std::vector<std::vector<std::int32_t>> hopLinks;
  IncidenceCsr cliqueFlows;  ///< clique -> (flow, links of its path inside)
  IncidenceCsr flowCliques;  ///< flow -> (clique, links of its path inside)
  IncidenceCsr linkFlows;    ///< link -> (flow, times its path crosses it)

  /// `paths[i]` is flow i's route (nodes, inclusive); every hop must be a
  /// link of `contention`.
  static FlowIncidence build(const ContentionStructure& contention,
                             const std::vector<std::vector<NodeId>>& paths);
};

}  // namespace maxmin::topo
