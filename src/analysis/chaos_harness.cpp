#include "analysis/chaos_harness.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "analysis/metrics.hpp"
#include "baselines/configs.hpp"
#include "gmp/controller.hpp"
#include "gmp/dissemination.hpp"
#include "net/network.hpp"
#include "sim/timer.hpp"
#include "topology/dominating_set.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace maxmin::analysis {

namespace {

/// Records when the fault plane last changed anything, so coverage
/// probes know whether the repair machinery has had time to act.
struct QuiescenceTracker final : sim::FaultListener {
  sim::Simulator* sim = nullptr;
  TimePoint lastChange = TimePoint::origin();

  void onNodeDown(std::int32_t) override { lastChange = sim->now(); }
  void onNodeUp(std::int32_t) override { lastChange = sim->now(); }
  void onLinkChanged(std::int32_t, std::int32_t, bool) override {
    lastChange = sim->now();
  }
};

/// Everything the per-period timers need, reachable through the one
/// context pointer a timer callback carries.
struct HarnessCtx {
  net::Network* net = nullptr;
  const topo::Topology* topo = nullptr;
  sim::FaultPlane* faults = nullptr;
  gmp::LinkStateDissemination* diss = nullptr;
  QuiescenceTracker* quiet = nullptr;
  Duration grace = Duration::zero();
  std::vector<double>* coverage = nullptr;
  int* coverageViolations = nullptr;

  /// One announcement per alive node per period: its adjacent link
  /// states, which keeps dissemination (and its reliability machinery)
  /// under load for the whole horizon.
  void pumpAnnouncements() const {
    for (topo::NodeId n = 0; n < topo->numNodes(); ++n) {
      if (!faults->nodeUp(n)) continue;
      std::vector<gmp::LinkStateAd> states;
      for (const topo::NodeId nbr : topo->neighbors(n)) {
        if (!faults->linkUp(n, nbr)) continue;
        states.push_back(gmp::LinkStateAd{topo::Link{n, nbr}, 0.0, 0.0});
      }
      diss->announce(n, std::move(states));
    }
  }

  /// Fraction of alive centers whose reachable 2-hop scope the current
  /// relay sets fully cover; a deficit outside the grace window after
  /// the last fault transition is an oracle violation.
  void probeCoverage() const {
    std::vector<char> alive(static_cast<std::size_t>(topo->numNodes()), 1);
    for (topo::NodeId n = 0; n < topo->numNodes(); ++n) {
      alive[static_cast<std::size_t>(n)] = faults->nodeUp(n) ? 1 : 0;
    }
    sim::FaultPlane* f = faults;
    const topo::LinkAliveFn link = [f](topo::NodeId a, topo::NodeId b) {
      return f->linkUp(a, b);
    };
    int centers = 0;
    int covered = 0;
    for (topo::NodeId c = 0; c < topo->numNodes(); ++c) {
      if (!alive[static_cast<std::size_t>(c)]) continue;
      ++centers;
      const auto targets = topo::reachableTwoHop(*topo, c, alive, link);
      const auto reach =
          topo::relayCoverage(*topo, c, diss->relaysOf(c), alive, link);
      if (std::includes(reach.begin(), reach.end(), targets.begin(),
                        targets.end())) {
        ++covered;
      }
    }
    const double frac = centers > 0 ? static_cast<double>(covered) / centers
                                    : 1.0;
    coverage->push_back(frac);
    if (frac < 1.0 && net->now() - quiet->lastChange >= grace) {
      ++*coverageViolations;
    }
  }
};

}  // namespace

ChaosOutcome runChaosSchedule(const scenarios::Scenario& scenario,
                              std::uint64_t seed, const ChaosParams& params) {
  ChaosOutcome out;
  out.seed = seed;
  const topo::Topology& topo = scenario.topology;

  // Shape the schedule from the topology: crash storms aim at the
  // union of all static dominating sets (the relay backbone), flaps and
  // isolation cuts draw from the real link list.
  sim::ChaosConfig shape = params.shape;
  shape.numNodes = topo.numNodes();
  shape.startSeconds = params.startSeconds;
  shape.healBySeconds = params.healBySeconds;
  if (shape.relayNodes.empty()) {
    std::set<std::int32_t> backbone;
    for (topo::NodeId id = 0; id < topo.numNodes(); ++id) {
      for (const topo::NodeId r : topo::computeDominatingSet(topo, id)) {
        backbone.insert(r);
      }
    }
    shape.relayNodes.assign(backbone.begin(), backbone.end());
  }
  if (shape.links.empty()) {
    for (topo::NodeId n = 0; n < topo.numNodes(); ++n) {
      for (const topo::NodeId nbr : topo.neighbors(n)) {
        if (nbr > n) shape.links.emplace_back(n, nbr);
      }
    }
  }
  Rng chaosRng = Rng{seed}.stream("chaos");
  const sim::FaultScript script = sim::generateChaosSchedule(shape, chaosRng);
  out.script = sim::toScriptText(script);

  net::NetworkConfig nc;
  nc.seed = seed;
  nc = baselines::configGmp(nc);

  net::Network net{topo, nc, scenario.flows};
  sim::FaultPlane& faults = net.enableFaults(script);

  QuiescenceTracker quiet;
  quiet.sim = &net.simulator();
  faults.addListener(&quiet);

  gmp::Controller controller{net, params.gmp};
  controller.start();

  gmp::LinkStateDissemination diss{net};
  if (!params.repairEnabled) diss.disableRepairForTest();
  if (params.reliabilityEnabled) diss.enableReliability({});

  HarnessCtx ctx;
  ctx.net = &net;
  ctx.topo = &topo;
  ctx.faults = &faults;
  ctx.diss = &diss;
  ctx.quiet = &quiet;
  ctx.grace = Duration::seconds(params.coverageGraceSeconds);
  ctx.coverage = &out.coverageByPeriod;
  ctx.coverageViolations = &out.coverageViolations;

  const Duration period = params.gmp.period;
  sim::PeriodicTimer pump{net.simulator(),
                          sim::bind<&HarnessCtx::pumpAnnouncements>(&ctx)};
  pump.start(Duration::micros(period.asMicros() / 2), period);
  sim::PeriodicTimer probe{net.simulator(),
                           sim::bind<&HarnessCtx::probeCoverage>(&ctx)};
  probe.start(period + Duration::millis(1), period);

  const auto t0 = net.snapshotDeliveries();
  net.run(Duration::seconds(params.horizonSeconds));
  const auto rates = net::Network::ratesBetween(t0, net.snapshotDeliveries());

  pump.stop();
  probe.stop();
  controller.stop();

  out.periodsRun = controller.periodsRun();
  out.relayRepairs = diss.relayRepairs();
  out.retransmits = diss.retransmits();

  // Oracle 1: liveness — a stalled event queue or deadlocked period
  // loop shows up as missing period boundaries.
  const int expectedPeriods = static_cast<int>(params.horizonSeconds /
                                               period.asSeconds()) -
                              1;
  if (out.periodsRun < expectedPeriods) {
    std::ostringstream os;
    os << "liveness: only " << out.periodsRun << " periods ran, expected >= "
       << expectedPeriods;
    out.violations.push_back(os.str());
  }

  // Oracle 2: sanity — delivered rate can never beat the channel.
  const double capacity = nc.mac.nominalLinkCapacityPps(nc.packetSize);
  for (const auto& [id, rate] : rates) {
    out.maxFlowRatePps = std::max(out.maxFlowRatePps, rate);
    if (rate > capacity * params.capacitySlack) {
      std::ostringstream os;
      os << "capacity: flow " << id << " delivered " << rate
         << " pps > nominal " << capacity << " * " << params.capacitySlack;
      out.violations.push_back(os.str());
    }
  }

  // Oracle 3: self-healing — coverage deficits outside the grace window.
  if (out.coverageViolations > 0) {
    std::ostringstream os;
    os << "coverage: " << out.coverageViolations
       << " quiescent probes found incomplete 2-hop relay coverage";
    out.violations.push_back(os.str());
  }

  // Oracle 4: re-convergence — mean I_eq over the fault-free tail.
  std::map<net::FlowId, int> hops;
  for (const net::FlowSpec& f : scenario.flows) {
    hops[f.id] = net.hopCount(f.id);
  }
  // Per-period 4 s windows are noisy; pool the tail's rates per flow
  // (mean over the last tailPeriods) and score fairness once, matching
  // how the steady-state experiments measure I_eq over a long window.
  const auto& history = controller.rateHistory();
  const int tail = std::min<int>(params.tailPeriods,
                                 static_cast<int>(history.size()));
  if (tail > 0) {
    std::map<net::FlowId, double> pooled;
    for (int i = 0; i < tail; ++i) {
      const auto& r = history[history.size() - 1 - static_cast<std::size_t>(i)];
      for (const auto& [id, rate] : r) pooled[id] += rate / tail;
    }
    out.tailIeq = summarize(pooled, hops).ieq;
    if (out.tailIeq < params.tailIeq) {
      std::ostringstream os;
      os << "reconvergence: tail I_eq " << out.tailIeq << " < "
         << params.tailIeq;
      out.violations.push_back(os.str());
    }
  }

  out.ok = out.violations.empty();
  return out;
}

std::vector<ChaosOutcome> runChaosBatch(const scenarios::Scenario& scenario,
                                        std::uint64_t firstSeed, int count,
                                        const ChaosParams& params) {
  std::vector<ChaosOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    outcomes.push_back(
        runChaosSchedule(scenario, firstSeed + static_cast<std::uint64_t>(i),
                         params));
  }
  return outcomes;
}

}  // namespace maxmin::analysis
