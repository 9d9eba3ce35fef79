#include "topology/conflict_graph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace maxmin::topo {

ConflictGraph::ConflictGraph(const Topology& topo, std::vector<Link> links)
    : links_{std::move(links)} {
  std::sort(links_.begin(), links_.end());
  MAXMIN_CHECK_MSG(
      std::adjacent_find(links_.begin(), links_.end()) == links_.end(),
      "duplicate links in conflict graph");
  for (const Link& l : links_) {
    MAXMIN_CHECK_MSG(topo.areNeighbors(l.from, l.to),
                     "link " << l << " endpoints are not neighbors");
  }
  const int n = numLinks();
  adjacency_ = AdjacencyMatrix{n};
  // linksConflict(a, b) holds exactly when an endpoint of b is an endpoint
  // of a or in carrier-sense range of one, so each link only visits the
  // links incident to those nodes instead of testing all L^2 pairs.
  std::vector<std::vector<int>> linksAt(
      static_cast<std::size_t>(topo.numNodes()));
  for (int i = 0; i < n; ++i) {
    const Link& l = links_[static_cast<std::size_t>(i)];
    linksAt[static_cast<std::size_t>(l.from)].push_back(i);
    linksAt[static_cast<std::size_t>(l.to)].push_back(i);
  }
  for (int a = 0; a < n; ++a) {
    const auto markLinksAt = [&](NodeId node) {
      for (int b : linksAt[static_cast<std::size_t>(node)]) {
        if (b != a) adjacency_.set(a, b);
      }
    };
    const Link& l = links_[static_cast<std::size_t>(a)];
    for (const NodeId end : {l.from, l.to}) {
      markLinksAt(end);
      for (const NodeId heard : topo.csNeighbors(end)) markLinksAt(heard);
    }
  }
}

bool ConflictGraph::linksConflict(const Topology& topo, Link a, Link b) {
  if (a.from == b.from || a.from == b.to || a.to == b.from || a.to == b.to) {
    return true;  // shared radio: a node transmits or receives one frame at a time
  }
  const NodeId ea[2] = {a.from, a.to};
  const NodeId eb[2] = {b.from, b.to};
  for (NodeId x : ea) {
    for (NodeId y : eb) {
      if (topo.inCsRange(x, y)) return true;
    }
  }
  return false;
}

int ConflictGraph::indexOf(Link l) const {
  const auto it = std::lower_bound(links_.begin(), links_.end(), l);
  if (it == links_.end() || *it != l) return -1;
  return static_cast<int>(it - links_.begin());
}

}  // namespace maxmin::topo
