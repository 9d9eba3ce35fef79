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
  snap.vnet = network_.virtualNetwork();
  const gmp::VirtualNetwork& vn = *snap.vnet;
  const auto& flows = network_.flows();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const net::FlowSpec& f = flows[i];
    gmp::FlowState fs;
    fs.id = f.id;
    fs.src = f.src;
    fs.dst = f.dst;
    fs.weight = f.weight;
    fs.desiredPps = f.desiredRate.asPerSecond();
    fs.ratePps = state.rates[i];
    fs.limitPps = network_.rateLimit(f.id);
    snap.flows.push_back(fs);
  }
  snap.saturated = state.saturated;

  // Each virtual link carries its flows' summed rate; every flow on it is
  // a primary candidate, in flow order.
  const gmp::BetaCompare cmp{params_.beta};
  snap.vlinks.resize(vn.vlinks.size());
  std::vector<gmp::FlowMu> mus;
  for (std::size_t v = 0; v < vn.vlinks.size(); ++v) {
    mus.clear();
    for (const std::size_t i : vn.vlinkFlows.row(v)) {
      const gmp::FlowState& fs = snap.flows[i];
      snap.vlinks[v].ratePps += fs.ratePps;
      mus.emplace_back(fs.id, fs.mu());
    }
    gmp::classifyVLink(snap, v, mus, cmp);
  }

  const auto& links = network_.contention().links;
  for (std::size_t li = 0; li < links.size(); ++li) {
    snap.wlinks.push_back(gmp::WLinkState{links[li], state.occupancy[li],
                                          gmp::linkNormRate(snap, li)});
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
  const std::vector<double> rates = network_.evaluate().rates;
  std::map<net::FlowId, double> out;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    out[network_.flows()[i].id] = rates[i];
  }
  return out;
}

FixedPointResult FluidGmpHarness::runToFixedPoint(double tol, int maxPeriods) {
  MAXMIN_CHECK(tol > 0.0);
  MAXMIN_CHECK(maxPeriods > 0);
  FixedPointResult out;
  std::vector<double> prev;  // last period's rates, in flow order
  double smoothed = 1.0;
  for (int p = 0; p < maxPeriods; ++p) {
    step();
    ++out.periods;
    const auto& flows = lastSnapshot_.flows;
    double delta = 0.0;
    for (std::size_t i = 0; i < prev.size(); ++i) {
      delta = std::max(delta, std::abs(flows[i].ratePps - prev[i]));
    }
    prev.clear();
    for (const gmp::FlowState& f : flows) prev.push_back(f.ratePps);
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
