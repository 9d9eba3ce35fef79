#include "fluid/fluid_gmp.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace maxmin::fluid {

FluidGmpHarness::FluidGmpHarness(FluidNetwork& network, gmp::GmpParams params)
    : network_{network},
      params_{params},
      engine_{network.contention(), params} {}

gmp::Snapshot FluidGmpHarness::buildSnapshot(const FluidState& state) const {
  gmp::Snapshot snap;
  const auto& flows = network_.flows();
  const auto& paths = network_.paths();

  for (const net::FlowSpec& f : flows) {
    gmp::FlowState fs;
    fs.id = f.id;
    fs.src = f.src;
    fs.dst = f.dst;
    fs.weight = f.weight;
    fs.desiredPps = f.desiredRate.asPerSecond();
    fs.ratePps = state.rates.at(f.id);
    fs.limitPps = network_.rateLimit(f.id);
    snap.flows.push_back(fs);
  }

  // Every virtual node on a path gets an explicit entry (unsaturated when
  // not in the backpressure chain), mirroring the controller. Virtual
  // links: one per (link, dest) traversed by any flow.
  snap.saturated = state.saturated;
  std::map<gmp::VirtualLinkKey, std::vector<std::size_t>> flowsOnVlink;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (std::size_t h = 0; h + 1 < paths[i].size(); ++h) {
      snap.saturated.try_emplace({paths[i][h], flows[i].dst}, false);
      flowsOnVlink[{paths[i][h], paths[i][h + 1], flows[i].dst}].push_back(i);
    }
  }
  const gmp::BetaCompare cmp{params_.beta};
  for (const auto& [key, flowIdxs] : flowsOnVlink) {
    gmp::VLinkState vl;
    vl.key = key;
    const bool senderSat = snap.saturated.at({key.from, key.dest});
    const bool receiverSat =
        snap.saturated.contains({key.to, key.dest}) &&
        snap.saturated.at({key.to, key.dest});
    vl.type = gmp::classifyLink(senderSat, receiverSat);
    double maxMu = 0.0;
    for (std::size_t i : flowIdxs) {
      vl.ratePps += state.rates.at(flows[i].id);
      maxMu = std::max(maxMu, state.rates.at(flows[i].id) / flows[i].weight);
    }
    vl.normRate = maxMu;
    for (std::size_t i : flowIdxs) {
      if (cmp.equal(state.rates.at(flows[i].id) / flows[i].weight, maxMu)) {
        vl.primaryFlows.push_back(flows[i].id);
      }
    }
    snap.vlinks.push_back(vl);
  }

  // A wireless link's normalized rate is the largest over its virtual
  // links; every flow crossing the link lies on exactly one of them.
  const auto& links = network_.contention().links;
  for (std::size_t li = 0; li < links.size(); ++li) {
    gmp::WLinkState wl;
    wl.link = links[li];
    wl.occupancy = state.occupancy.at(wl.link);
    for (const auto& [i, k] : network_.incidence().linkFlows.row(li)) {
      wl.normRate = std::max(wl.normRate,
                             state.rates.at(flows[i].id) / flows[i].weight);
    }
    snap.wlinks.push_back(wl);
  }
  return snap;
}

gmp::DecisionReport FluidGmpHarness::step() {
  lastSnapshot_ = buildSnapshot(network_.evaluate());
  const gmp::DecisionReport report = engine_.decide(lastSnapshot_);
  for (const gmp::Command& cmd : report.commands) {
    switch (cmd.kind) {
      case gmp::Command::Kind::kSetLimit:
        network_.setRateLimit(cmd.flow, cmd.limitPps);
        break;
      case gmp::Command::Kind::kRemoveLimit:
        network_.setRateLimit(cmd.flow, std::nullopt);
        break;
    }
  }
  violationHistory_.push_back(report.sourceBufferViolations +
                              report.bandwidthViolations);
  return report;
}

std::map<net::FlowId, double> FluidGmpHarness::run(int periods) {
  MAXMIN_CHECK(periods > 0);
  for (int p = 0; p < periods; ++p) step();
  return network_.evaluate().rates;
}

FixedPointResult FluidGmpHarness::runToFixedPoint(double tol, int maxPeriods) {
  MAXMIN_CHECK(tol > 0.0);
  MAXMIN_CHECK(maxPeriods > 0);
  FixedPointResult out;
  std::map<net::FlowId, double> prev;
  double smoothed = 1.0;
  for (int p = 0; p < maxPeriods; ++p) {
    step();
    ++out.periods;
    double delta = 0.0;
    for (const gmp::FlowState& f : lastSnapshot_.flows) {
      if (const auto it = prev.find(f.id); it != prev.end()) {
        delta = std::max(delta, std::abs(f.ratePps - it->second));
      }
      prev[f.id] = f.ratePps;
    }
    if (p == 0) continue;  // no previous period to diff against
    smoothed = 0.5 * smoothed + 0.5 * delta / network_.cliqueCapacity();
    out.residual = smoothed;
    if (smoothed < tol) {
      out.converged = true;
      break;
    }
  }
  return out;
}

}  // namespace maxmin::fluid
