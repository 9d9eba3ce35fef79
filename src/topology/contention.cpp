#include "topology/contention.hpp"

#include <algorithm>

#include "topology/conflict_graph.hpp"
#include "util/check.hpp"

namespace maxmin::topo {
namespace {

/// Appends one row holding `inner` (any order, repeats allowed) as
/// (index, count) pairs in ascending index.
void appendRow(IncidenceCsr& csr, std::vector<std::int32_t> inner) {
  std::ranges::sort(inner);
  for (std::size_t k = 0; k < inner.size(); ++k) {
    if (k > 0 && inner[k] == inner[k - 1]) {
      ++csr.entries.back().count;
    } else {
      csr.entries.push_back({inner[k], 1});
    }
  }
  csr.offset.push_back(static_cast<std::int32_t>(csr.entries.size()));
}

/// The transpose, built with a counting pass. Its rows come out in
/// ascending index because the source rows are visited in order.
IncidenceCsr transpose(const IncidenceCsr& csr, std::size_t cols) {
  IncidenceCsr t;
  t.offset.assign(cols + 1, 0);
  for (const IncidenceCsr::Entry& e : csr.entries) {
    ++t.offset[static_cast<std::size_t>(e.index) + 1];
  }
  for (std::size_t c = 0; c < cols; ++c) t.offset[c + 1] += t.offset[c];
  t.entries.resize(csr.entries.size());
  std::vector<std::int32_t> next(t.offset.begin(), t.offset.end() - 1);
  for (std::size_t r = 0; r < csr.rows(); ++r) {
    for (const auto& [c, k] : csr.row(r)) {
      auto& pos = next[static_cast<std::size_t>(c)];
      t.entries[static_cast<std::size_t>(pos++)] = {
          static_cast<std::int32_t>(r), k};
    }
  }
  return t;
}

}  // namespace

ContentionStructure ContentionStructure::build(const Topology& topo,
                                               std::vector<Link> links) {
  ConflictGraph graph{topo, std::move(links)};
  ContentionStructure cs;
  cs.links = graph.links();
  cs.cliques = enumerateMaximalCliques(graph);
  cs.cliquesOfLink = cliquesByLink(graph, cs.cliques);
  return cs;
}

int ContentionStructure::linkIndex(Link l) const {
  const auto it = std::lower_bound(links.begin(), links.end(), l);
  if (it == links.end() || *it != l) return -1;
  return static_cast<int>(it - links.begin());
}

std::vector<Link> linksOnPaths(const std::vector<std::vector<NodeId>>& paths,
                               std::vector<Link> extra) {
  std::vector<Link> links = std::move(extra);
  for (const auto& path : paths) {
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      links.push_back(Link{path[h], path[h + 1]});
    }
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

FlowIncidence FlowIncidence::build(
    const ContentionStructure& contention,
    const std::vector<std::vector<NodeId>>& paths) {
  FlowIncidence inc;
  IncidenceCsr flowLinks;
  for (const auto& path : paths) {
    std::vector<std::int32_t>& hops = inc.hopLinks.emplace_back();
    std::vector<std::int32_t> cliques;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      const Link l{path[h], path[h + 1]};
      const int li = contention.linkIndex(l);
      MAXMIN_CHECK_MSG(li >= 0,
                       "path hop " << l << " is not a contention link");
      hops.push_back(li);
      const auto& of = contention.cliquesOfLink[static_cast<std::size_t>(li)];
      cliques.insert(cliques.end(), of.begin(), of.end());
    }
    appendRow(flowLinks, hops);
    appendRow(inc.flowCliques, std::move(cliques));
  }
  inc.cliqueFlows = transpose(inc.flowCliques, contention.cliques.size());
  inc.linkFlows = transpose(flowLinks, contention.links.size());
  return inc;
}

}  // namespace maxmin::topo
