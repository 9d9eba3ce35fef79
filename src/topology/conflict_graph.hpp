// Link conflict ("contention") graph.
//
// Two wireless links contend when they cannot carry simultaneous
// successful exchanges. Under RTS/CTS both endpoints of a link are active
// during an exchange (RTS/DATA from the sender, CTS/ACK from the
// receiver), so links (i,j) and (u,v) conflict when they share a node or
// when any endpoint of one is within carrier-sense/interference range of
// any endpoint of the other. This matches the medium model in
// src/phys, so cliques computed here are exactly the airtime constraints
// the MAC enforces.
//
// The relation is stored as packed rows (AdjacencyMatrix indexed by link,
// ceil(L/64) words per link), so clique enumeration intersects vertex
// sets word by word.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/adjacency.hpp"
#include "topology/link.hpp"
#include "topology/topology.hpp"

namespace maxmin::topo {

class ConflictGraph {
 public:
  /// Build over an explicit set of (distinct) directed links. Each link's
  /// endpoints must be one-hop neighbors.
  ConflictGraph(const Topology& topo, std::vector<Link> links);

  static bool linksConflict(const Topology& topo, Link a, Link b);

  const std::vector<Link>& links() const { return links_; }
  [[nodiscard]] int numLinks() const { return static_cast<int>(links_.size()); }

  [[nodiscard]] bool conflicts(int a, int b) const {
    MAXMIN_CHECK_MSG(b >= 0 && b < numLinks(), "bad link index " << b);
    return adjacency_.test(a, b);
  }

  /// Packed conflict row of link `a`: wordsPerRow() words, bit b set when
  /// a and b conflict (never the diagonal).
  [[nodiscard]] const std::uint64_t* row(int a) const {
    return adjacency_.row(a);
  }
  [[nodiscard]] std::size_t wordsPerRow() const {
    return adjacency_.wordsPerRow();
  }

  /// Index of a link in links(), or -1 if absent.
  [[nodiscard]] int indexOf(Link l) const;

 private:
  std::vector<Link> links_;
  AdjacencyMatrix adjacency_;  ///< indexed by link, symmetric
};

}  // namespace maxmin::topo
