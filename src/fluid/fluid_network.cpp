#include "fluid/fluid_network.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace maxmin::fluid {

FluidNetwork::FluidNetwork(const topo::Topology& topo,
                           std::vector<net::FlowSpec> flows,
                           double cliqueCapacityPps,
                           std::vector<topo::Link> extraLinks)
    : flows_{std::move(flows)},
      paths_{net::routeFlows(topo, flows_)},
      capacity_{cliqueCapacityPps} {
  contention_ = topo::ContentionStructure::build(
      topo, topo::linksOnPaths(paths_, std::move(extraLinks)));
  init();
}

FluidNetwork::FluidNetwork(const topo::Topology& topo,
                           std::vector<net::FlowSpec> flows,
                           double cliqueCapacityPps,
                           topo::ContentionStructure contention)
    : flows_{std::move(flows)},
      paths_{net::routeFlows(topo, flows_)},
      contention_{std::move(contention)},
      capacity_{cliqueCapacityPps} {
  MAXMIN_CHECK_MSG(topo::linksOnPaths(paths_) == contention_.links,
                   "contention structure links differ from the flows' "
                   "link set");
  init();
}

void FluidNetwork::init() {
  MAXMIN_CHECK(capacity_ > 0.0);
  limits_.assign(flows_.size(), std::nullopt);
  incidence_ = topo::FlowIncidence::build(contention_, paths_);
  vnet_ = gmp::VirtualNetwork::build(contention_, flows_, paths_);
  extLink_.assign(contention_.links.size(), 0.0);
  extClique_.assign(contention_.cliques.size(), 0.0);
}

std::size_t FluidNetwork::indexOf(net::FlowId id) const {
  const int i = vnet_->flowIndex(id);
  MAXMIN_CHECK_MSG(i >= 0, "unknown flow " << id);
  return static_cast<std::size_t>(i);
}

void FluidNetwork::setRateLimit(net::FlowId id, std::optional<double> pps) {
  const std::size_t i = indexOf(id);
  if (pps) MAXMIN_CHECK(*pps > 0.0);
  limits_[i] = pps;
}

std::optional<double> FluidNetwork::rateLimit(net::FlowId id) const {
  return limits_[indexOf(id)];
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

FluidState FluidNetwork::evaluate() const {
  const std::size_t n = flows_.size();
  const std::size_t m = contention_.cliques.size();

  ws_.offered.resize(n);
  ws_.rate.resize(n);
  ws_.bottleneck.assign(n, -1);
  ws_.load.assign(m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double offered = flows_[i].desiredRate.asPerSecond();
    if (const auto& lim = limits_[i]) {
      offered = std::min(offered, *lim);
    }
    ws_.offered[i] = offered;
    ws_.rate[i] = offered;
  }
  for (std::size_t c = 0; c < m; ++c) {
    for (const auto& [i, k] : incidence_.cliqueFlows.row(c)) {
      ws_.load[c] += ws_.rate[i] * k;
    }
  }

  // Demand-proportional scaling until every clique fits. Track, per flow,
  // the clique that last constrained it: that clique holds the flow's
  // bottleneck link. Loads are maintained incrementally — only the
  // cliques of the flows just rescaled are touched — so an iteration is
  // O(|worst clique| x path length) and allocation-free. A clique is
  // overloaded when its utilization exceeds 1 + kUtilizationSlack.
  constexpr int kMaxIterations = 10000;
  constexpr double kUtilizationSlack = 1e-9;
  // A clique whose own fluid load is this small cannot be rescued by
  // scaling (its overload is all external occupancy); skip it so the
  // loop terminates.
  const double minScalableLoad = capacity_ * 1e-15;
  stats_ = SolveStats{};
  for (; stats_.iterations < kMaxIterations; ++stats_.iterations) {
    double worst = 1.0 + kUtilizationSlack;
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
    // The undamped step, rounded as the damped form with damping 1.0
    // rounded it: for factor < 0.5, 1 - (1 - factor) can differ from
    // factor in the last bit, so the round trip keeps rates bit-identical.
    factor = 1.0 - (1.0 - factor);
    for (const auto& [i, k] : incidence_.cliqueFlows.row(wc)) {
      const double delta = ws_.rate[i] * (factor - 1.0);
      ws_.rate[i] += delta;
      ws_.bottleneck[i] = static_cast<std::int32_t>(wc);
      for (const auto& [c, ck] : incidence_.flowCliques.row(i)) {
        ws_.load[c] += delta * ck;
      }
    }
  }

  // Diagnostics: recompute the worst utilization from scratch so the
  // reported figure is free of incremental-update drift.
  for (std::size_t c = 0; c < m; ++c) {
    double load = 0.0;
    for (const auto& [i, k] : incidence_.cliqueFlows.row(c)) {
      load += ws_.rate[i] * k;
    }
    stats_.maxUtilization =
        std::max(stats_.maxUtilization, load / capacity_ + extClique_[c]);
  }

  FluidState state;
  state.rates = ws_.rate;

  // Backpressure chain: a constrained flow saturates the queues from its
  // source through the sender of its first link inside the bottleneck
  // clique (paper §3.2: everything upstream of the bandwidth-saturated
  // link is buffer-saturated).
  constexpr double kEps = 1e-9;
  state.saturated.assign(vnet_->vnodes.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const bool constrained = ws_.rate[i] < ws_.offered[i] - kEps;
    if (!constrained) continue;
    MAXMIN_CHECK(ws_.bottleneck[i] >= 0);
    const int bc = ws_.bottleneck[i];
    const auto& path = paths_[i];
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      state.saturated[static_cast<std::size_t>(
          vnet_->vnodeId(path[h], flows_[i].dst))] = 1;
      const auto& cliques = contention_.cliquesOfLink[static_cast<std::size_t>(
          incidence_.hopLinks[i][h])];
      if (std::ranges::find(cliques, bc) != cliques.end()) break;
    }
  }

  // Link occupancies: airtime fraction consumed by the traffic on each
  // wireless link, plus any external (packet-measured) share.
  state.occupancy.resize(contention_.links.size());
  for (std::size_t li = 0; li < contention_.links.size(); ++li) {
    double load = 0.0;
    for (const auto& [i, k] : incidence_.linkFlows.row(li)) {
      load += ws_.rate[i] * k;
    }
    state.occupancy[li] = load / capacity_ + extLink_[li];
  }
  return state;
}

}  // namespace maxmin::fluid
