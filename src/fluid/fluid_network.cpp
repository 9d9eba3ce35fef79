#include "fluid/fluid_network.hpp"

#include <algorithm>
#include <set>

#include "util/check.hpp"

namespace maxmin::fluid {
namespace {

/// Builds one CSR side from (outer, inner, count) triples sorted by outer.
void buildCsr(std::size_t outerSize,
              const std::map<std::pair<std::int32_t, std::int32_t>,
                             std::int32_t>& counts,
              std::vector<std::int32_t>& off, std::vector<std::int32_t>& idx,
              std::vector<std::int32_t>& cnt) {
  off.assign(outerSize + 1, 0);
  for (const auto& [key, c] : counts) {
    ++off[static_cast<std::size_t>(key.first) + 1];
  }
  for (std::size_t i = 1; i < off.size(); ++i) off[i] += off[i - 1];
  idx.resize(counts.size());
  cnt.resize(counts.size());
  std::size_t pos = 0;
  for (const auto& [key, c] : counts) {
    idx[pos] = key.second;
    cnt[pos] = c;
    ++pos;
  }
}

}  // namespace

FluidNetwork::FluidNetwork(const topo::Topology& topo,
                           std::vector<net::FlowSpec> flows,
                           double cliqueCapacityPps,
                           std::vector<topo::Link> extraLinks)
    : flows_{std::move(flows)}, capacity_{cliqueCapacityPps} {
  std::set<topo::Link> linkSet{extraLinks.begin(), extraLinks.end()};
  const std::vector<topo::Link> routed = routeFlows(topo);
  linkSet.insert(routed.begin(), routed.end());
  contention_ = gmp::ContentionStructure::build(
      topo, {linkSet.begin(), linkSet.end()});
  buildIncidence();
}

FluidNetwork::FluidNetwork(const topo::Topology& topo,
                           std::vector<net::FlowSpec> flows,
                           double cliqueCapacityPps,
                           gmp::ContentionStructure contention)
    : flows_{std::move(flows)},
      contention_{std::move(contention)},
      capacity_{cliqueCapacityPps} {
  MAXMIN_CHECK_MSG(routeFlows(topo) == contention_.links,
                   "contention structure links differ from the flows' "
                   "link set");
  buildIncidence();
}

std::vector<topo::Link> FluidNetwork::routeFlows(const topo::Topology& topo) {
  MAXMIN_CHECK(capacity_ > 0.0);
  net::validateFlows(flows_, topo.numNodes());
  std::set<topo::Link> linkSet;
  for (const net::FlowSpec& f : flows_) {
    const auto tree = topo::RoutingTree::shortestPaths(topo, f.dst);
    MAXMIN_CHECK_MSG(tree.reaches(f.src), "flow " << f.id << " unroutable");
    paths_.push_back(tree.pathFrom(f.src));
    limits_[f.id] = std::nullopt;
    for (std::size_t i = 0; i + 1 < paths_.back().size(); ++i) {
      linkSet.insert(topo::Link{paths_.back()[i], paths_.back()[i + 1]});
    }
  }
  return {linkSet.begin(), linkSet.end()};
}

void FluidNetwork::buildIncidence() {
  // Hop -> contention link index, then the three CSR incidence views.
  pathLinks_.resize(paths_.size());
  std::map<std::pair<std::int32_t, std::int32_t>, std::int32_t> cliqueFlow;
  std::map<std::pair<std::int32_t, std::int32_t>, std::int32_t> flowClique;
  std::map<std::pair<std::int32_t, std::int32_t>, std::int32_t> linkFlow;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const auto fi = static_cast<std::int32_t>(i);
    for (std::size_t h = 0; h + 1 < paths_[i].size(); ++h) {
      const int li =
          contention_.linkIndex(topo::Link{paths_[i][h], paths_[i][h + 1]});
      MAXMIN_CHECK(li >= 0);
      pathLinks_[i].push_back(li);
      ++linkFlow[{li, fi}];
      for (int c : contention_.cliquesOfLink[static_cast<std::size_t>(li)]) {
        ++cliqueFlow[{c, fi}];
        ++flowClique[{fi, c}];
      }
    }
  }
  buildCsr(contention_.cliques.size(), cliqueFlow, cliqueFlowOff_,
           cliqueFlowIdx_, cliqueFlowCnt_);
  buildCsr(paths_.size(), flowClique, flowCliqueOff_, flowCliqueIdx_,
           flowCliqueCnt_);
  buildCsr(contention_.links.size(), linkFlow, linkFlowOff_, linkFlowIdx_,
           linkFlowCnt_);

  extLink_.assign(contention_.links.size(), 0.0);
  extClique_.assign(contention_.cliques.size(), 0.0);
}

void FluidNetwork::setRateLimit(net::FlowId id, std::optional<double> pps) {
  MAXMIN_CHECK(limits_.contains(id));
  if (pps) MAXMIN_CHECK(*pps > 0.0);
  limits_[id] = pps;
}

std::optional<double> FluidNetwork::rateLimit(net::FlowId id) const {
  return limits_.at(id);
}

void FluidNetwork::setExternalOccupancy(topo::Link l, double fraction) {
  MAXMIN_CHECK(fraction >= 0.0);
  const int li = contention_.linkIndex(l);
  MAXMIN_CHECK_MSG(li >= 0, "external occupancy on unknown link " << l);
  const double delta = fraction - extLink_[static_cast<std::size_t>(li)];
  extLink_[static_cast<std::size_t>(li)] = fraction;
  for (int c : contention_.cliquesOfLink[static_cast<std::size_t>(li)]) {
    extClique_[static_cast<std::size_t>(c)] += delta;
  }
}

void FluidNetwork::clearExternalOccupancy() {
  std::ranges::fill(extLink_, 0.0);
  std::ranges::fill(extClique_, 0.0);
}

void FluidNetwork::setSolverOptions(SolverOptions opts) {
  MAXMIN_CHECK(opts.damping > 0.0 && opts.damping <= 1.0);
  MAXMIN_CHECK(opts.maxIterations > 0);
  MAXMIN_CHECK(opts.utilizationSlack > 0.0);
  opts_ = opts;
}

FluidState FluidNetwork::evaluate() const {
  const std::size_t n = flows_.size();
  const std::size_t m = contention_.cliques.size();

  ws_.offered.resize(n);
  ws_.rate.resize(n);
  ws_.bottleneck.assign(n, -1);
  ws_.load.assign(m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double offered = flows_[i].desiredRate.asPerSecond();
    if (const auto& lim = limits_.at(flows_[i].id)) {
      offered = std::min(offered, *lim);
    }
    ws_.offered[i] = offered;
    ws_.rate[i] = offered;
  }
  for (std::size_t c = 0; c < m; ++c) {
    for (std::int32_t e = cliqueFlowOff_[c]; e < cliqueFlowOff_[c + 1]; ++e) {
      ws_.load[c] += ws_.rate[static_cast<std::size_t>(cliqueFlowIdx_[e])] *
                     cliqueFlowCnt_[e];
    }
  }

  // Demand-proportional scaling until every clique fits. Track, per flow,
  // the clique that last constrained it: that clique holds the flow's
  // bottleneck link. Loads are maintained incrementally — only the
  // cliques of the flows just rescaled are touched — so an iteration is
  // O(|worst clique| x path length) and allocation-free.
  const double slack = opts_.utilizationSlack;
  // A clique whose own fluid load is this small cannot be rescued by
  // scaling (its overload is all external occupancy); skip it so the
  // loop terminates.
  const double minScalableLoad = capacity_ * 1e-15;
  stats_ = SolveStats{};
  for (; stats_.iterations < opts_.maxIterations; ++stats_.iterations) {
    double worst = 1.0 + slack;
    std::int64_t worstClique = -1;
    for (std::size_t c = 0; c < m; ++c) {
      const double utilization = ws_.load[c] / capacity_ + extClique_[c];
      if (utilization > worst && ws_.load[c] > minScalableLoad) {
        worst = utilization;
        worstClique = static_cast<std::int64_t>(c);
      }
    }
    if (worstClique < 0) {
      stats_.converged = true;
      break;
    }
    const auto wc = static_cast<std::size_t>(worstClique);
    const double avail = std::max(0.0, 1.0 - extClique_[wc]);
    double factor = std::min(1.0, avail * capacity_ / ws_.load[wc]);
    factor = 1.0 - opts_.damping * (1.0 - factor);
    for (std::int32_t e = cliqueFlowOff_[wc]; e < cliqueFlowOff_[wc + 1];
         ++e) {
      const auto i = static_cast<std::size_t>(cliqueFlowIdx_[e]);
      const double delta = ws_.rate[i] * (factor - 1.0);
      ws_.rate[i] += delta;
      ws_.bottleneck[i] = static_cast<std::int32_t>(wc);
      for (std::int32_t fe = flowCliqueOff_[i]; fe < flowCliqueOff_[i + 1];
           ++fe) {
        ws_.load[static_cast<std::size_t>(flowCliqueIdx_[fe])] +=
            delta * flowCliqueCnt_[fe];
      }
    }
  }

  // Diagnostics: recompute the worst utilization from scratch so the
  // reported figure is free of incremental-update drift.
  for (std::size_t c = 0; c < m; ++c) {
    double load = 0.0;
    for (std::int32_t e = cliqueFlowOff_[c]; e < cliqueFlowOff_[c + 1]; ++e) {
      load += ws_.rate[static_cast<std::size_t>(cliqueFlowIdx_[e])] *
              cliqueFlowCnt_[e];
    }
    stats_.maxUtilization =
        std::max(stats_.maxUtilization, load / capacity_ + extClique_[c]);
  }

  FluidState state;
  for (std::size_t i = 0; i < n; ++i) {
    state.rates[flows_[i].id] = ws_.rate[i];
  }

  // Backpressure chain: a constrained flow saturates the queues from its
  // source through the sender of its first link inside the bottleneck
  // clique (paper §3.2: everything upstream of the bandwidth-saturated
  // link is buffer-saturated).
  constexpr double kEps = 1e-9;
  for (std::size_t i = 0; i < n; ++i) {
    const bool constrained = ws_.rate[i] < ws_.offered[i] - kEps;
    if (!constrained) continue;
    MAXMIN_CHECK(ws_.bottleneck[i] >= 0);
    const int bc = ws_.bottleneck[i];
    const auto& path = paths_[i];
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      state.saturated[{path[h], flows_[i].dst}] = true;
      const auto& cliques = contention_.cliquesOfLink[static_cast<std::size_t>(
          pathLinks_[i][h])];
      if (std::ranges::find(cliques, bc) != cliques.end()) break;
    }
  }

  // Link occupancies: airtime fraction consumed by the traffic on each
  // wireless link, plus any external (packet-measured) share.
  for (std::size_t li = 0; li < contention_.links.size(); ++li) {
    double load = 0.0;
    for (std::int32_t e = linkFlowOff_[li]; e < linkFlowOff_[li + 1]; ++e) {
      load += ws_.rate[static_cast<std::size_t>(linkFlowIdx_[e])] *
              linkFlowCnt_[e];
    }
    state.occupancy[contention_.links[li]] = load / capacity_ + extLink_[li];
  }
  return state;
}

}  // namespace maxmin::fluid
