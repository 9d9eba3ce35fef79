#include "baselines/two_phase.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/check.hpp"

namespace maxmin::baselines {

TwoPhaseAllocator::TwoPhaseAllocator(const topo::Topology& topo,
                                     std::vector<net::FlowSpec> flows,
                                     double cliqueCapacityPps,
                                     double basicShareConservatism)
    : flows_{std::move(flows)},
      capacity_{cliqueCapacityPps},
      conservatism_{basicShareConservatism} {
  MAXMIN_CHECK(capacity_ > 0.0);
  MAXMIN_CHECK(conservatism_ > 0.0 && conservatism_ <= 1.0);
  const auto paths = net::routeFlows(topo, flows_);
  incidence_ = topo::FlowIncidence::build(
      topo::ContentionStructure::build(topo, topo::linksOnPaths(paths)),
      paths);
}

TwoPhaseAllocation TwoPhaseAllocator::allocate() const {
  const std::size_t n = flows_.size();
  const topo::IncidenceCsr& cliqueFlows = incidence_.cliqueFlows;
  const topo::IncidenceCsr& flowCliques = incidence_.flowCliques;
  const std::size_t m = cliqueFlows.rows();
  TwoPhaseAllocation alloc;

  // Phase one: the basic fair share. Each clique's capacity is divided
  // equally over every flow-link traversal inside it; a flow's guarantee
  // is the worst such division along its path. Conservative by design —
  // a flow crossing a busy clique several times still gets only one
  // share of it.
  std::vector<int> cliqueTraversals(m, 0);
  for (std::size_t c = 0; c < m; ++c) {
    for (const auto& [i, k] : cliqueFlows.row(c)) cliqueTraversals[c] += k;
  }
  std::vector<double> basic(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double share = std::numeric_limits<double>::infinity();
    for (const auto& [c, k] : flowCliques.row(i)) {
      share = std::min(share, capacity_ / cliqueTraversals[c]);
    }
    MAXMIN_CHECK(std::isfinite(share));
    basic[i] =
        std::min(share * conservatism_, flows_[i].desiredRate.asPerSecond());
  }

  // Residual clique capacity after the guarantees.
  std::vector<double> residual(m, 0.0);
  for (std::size_t c = 0; c < m; ++c) {
    double used = 0.0;
    for (const auto& [i, k] : cliqueFlows.row(c)) used += basic[i] * k;
    residual[c] = std::max(0.0, capacity_ - used);
  }

  // Phase two: maximize aggregate throughput. Cheapest flows first
  // (fewest total clique traversals, then id).
  std::vector<int> cost(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [c, k] : flowCliques.row(i)) cost[i] += k;
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (cost[a] != cost[b]) return cost[a] < cost[b];
    return flows_[a].id < flows_[b].id;
  });

  std::vector<double> total = basic;
  for (std::size_t i : order) {
    double extra = flows_[i].desiredRate.asPerSecond() - total[i];
    for (const auto& [c, k] : flowCliques.row(i)) {
      extra = std::min(extra, residual[c] / k);
    }
    extra = std::max(0.0, extra);
    total[i] += extra;
    for (const auto& [c, k] : flowCliques.row(i)) residual[c] -= extra * k;
  }

  for (std::size_t i = 0; i < n; ++i) {
    alloc.basicSharePps[flows_[i].id] = basic[i];
    alloc.totalPps[flows_[i].id] = total[i];
  }
  return alloc;
}

}  // namespace maxmin::baselines
