#include "analysis/maxmin_solver.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "util/check.hpp"

namespace maxmin::analysis {

CliqueModel buildCliqueModel(const topo::Topology& topo,
                             const std::vector<net::FlowSpec>& flows,
                             double cliqueCapacityPps) {
  MAXMIN_CHECK(cliqueCapacityPps > 0.0);
  CliqueModel model;
  model.flows = flows;
  const auto paths = net::routeFlows(topo, flows);
  model.contention =
      topo::ContentionStructure::build(topo, topo::linksOnPaths(paths));
  model.incidence = topo::FlowIncidence::build(model.contention, paths);
  model.capacity = cliqueCapacityPps;
  return model;
}

std::map<net::FlowId, double> solveWeightedMaxmin(const CliqueModel& model) {
  const std::size_t n = model.flows.size();
  const topo::IncidenceCsr& cliqueFlows = model.incidence.cliqueFlows;
  const std::size_t m = cliqueFlows.rows();
  std::vector<double> rate(n, 0.0);
  std::vector<bool> active(n, true);
  const auto desired = [&](std::size_t i) {
    return model.flows[i].desiredRate.asPerSecond();
  };
  for (std::size_t i = 0; i < n; ++i) {
    MAXMIN_CHECK(model.flows[i].weight > 0.0);
    if (desired(i) <= 0.0) active[i] = false;
  }

  constexpr double kEps = 1e-9;
  for (std::size_t round = 0; round <= n + m; ++round) {
    if (std::ranges::none_of(active, std::identity{})) break;

    // Largest uniform normalized-rate increment all active flows admit.
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < m; ++c) {
      double load = 0.0;
      double weightSum = 0.0;
      for (const auto& [i, k] : cliqueFlows.row(c)) {
        load += rate[i] * k;
        if (active[i]) weightSum += model.flows[i].weight * k;
      }
      if (weightSum > 0.0) {
        delta = std::min(delta, (model.capacity - load) / weightSum);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      delta = std::min(delta, (desired(i) - rate[i]) / model.flows[i].weight);
    }
    MAXMIN_CHECK(std::isfinite(delta));
    delta = std::max(delta, 0.0);

    for (std::size_t i = 0; i < n; ++i) {
      if (active[i]) rate[i] += delta * model.flows[i].weight;
    }

    // Freeze flows at their desirable rate or crossing a now-tight clique.
    bool froze = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (active[i] && rate[i] >= desired(i) - kEps) {
        active[i] = false;
        froze = true;
      }
    }
    for (std::size_t c = 0; c < m; ++c) {
      double load = 0.0;
      bool anyActive = false;
      for (const auto& [i, k] : cliqueFlows.row(c)) {
        load += rate[i] * k;
        if (active[i]) anyActive = true;
      }
      if (anyActive && load >= model.capacity - kEps) {
        for (const auto& [i, k] : cliqueFlows.row(c)) active[i] = false;
        froze = true;
      }
    }
    MAXMIN_CHECK_MSG(froze || std::ranges::none_of(active, std::identity{}),
                     "water-filling made no progress");
  }

  std::map<net::FlowId, double> result;
  for (std::size_t i = 0; i < n; ++i) {
    result[model.flows[i].id] = rate[i];
  }
  return result;
}

namespace {

double cliqueLoad(const CliqueModel& model, std::size_t c,
                  const std::map<net::FlowId, double>& rates) {
  double load = 0.0;
  for (const auto& [i, k] : model.incidence.cliqueFlows.row(c)) {
    load += rates.at(model.flows[i].id) * k;
  }
  return load;
}

}  // namespace

bool isFeasible(const CliqueModel& model,
                const std::map<net::FlowId, double>& rates,
                double tolerance) {
  for (const net::FlowSpec& f : model.flows) {
    const double r = rates.at(f.id);
    if (r < -tolerance || r > f.desiredRate.asPerSecond() + tolerance) {
      return false;
    }
  }
  for (std::size_t c = 0; c < model.incidence.cliqueFlows.rows(); ++c) {
    if (cliqueLoad(model, c, rates) > model.capacity + tolerance) return false;
  }
  return true;
}

bool satisfiesBottleneckCondition(const CliqueModel& model,
                                  const std::map<net::FlowId, double>& rates,
                                  double tolerance) {
  if (!isFeasible(model, rates, tolerance)) return false;
  const auto mu = [&](std::size_t i) {
    return rates.at(model.flows[i].id) / model.flows[i].weight;
  };
  for (std::size_t i = 0; i < model.flows.size(); ++i) {
    const double r = rates.at(model.flows[i].id);
    const double demand = model.flows[i].desiredRate.asPerSecond();
    if (r >= demand - tolerance) continue;  // demand-capped

    const auto isBottleneck = [&](const topo::IncidenceCsr::Entry& e) {
      double maxMu = 0.0;
      for (const auto& [j, k] : model.incidence.cliqueFlows.row(e.index)) {
        maxMu = std::max(maxMu, mu(j));
      }
      return cliqueLoad(model, e.index, rates) >= model.capacity - tolerance &&
             mu(i) >= maxMu - tolerance;
    };
    const auto cliques = model.incidence.flowCliques.row(i);
    if (!std::ranges::any_of(cliques, isBottleneck)) return false;
  }
  return true;
}

}  // namespace maxmin::analysis
