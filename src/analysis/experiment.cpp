#include "analysis/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "baselines/configs.hpp"
#include "baselines/two_phase.hpp"
#include "gmp/controller.hpp"
#include "hybrid/engine.hpp"
#include "net/network.hpp"
#include "util/check.hpp"

namespace maxmin::analysis {

const char* protocolName(Protocol p) {
  switch (p) {
    case Protocol::kDcf80211: return "802.11";
    case Protocol::kTwoPhase: return "2PP";
    case Protocol::kGmp: return "GMP";
  }
  return "?";
}

double RunResult::rateOf(net::FlowId id) const {
  for (const FlowOutcome& f : flows) {
    if (f.id == id) return f.ratePps;
  }
  MAXMIN_CHECK_MSG(false, "unknown flow " << id);
  return 0.0;
}

std::vector<std::string> validate(const RunConfig& config,
                                  const scenarios::Scenario& scenario) {
  std::vector<std::string> errors;
  const auto fail = [&errors](auto&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    errors.push_back(os.str());
  };
  const auto isProbability = [](double p) { return p >= 0.0 && p <= 1.0; };

  if (config.warmup < Duration::zero() || config.warmup >= config.duration) {
    fail("warmup must be >= 0 and shorter than duration (warmup ",
         config.warmup.asSeconds(), " s, duration ",
         config.duration.asSeconds(), " s)");
  }

  const phys::ImpairmentConfig& imp = config.netBase.impairments;
  if (!isProbability(imp.per)) {
    fail("per-frame loss probability must be in [0, 1], got ", imp.per);
  }
  const phys::GilbertElliottParams& ge = imp.gilbert;
  for (const double p :
       {ge.pGoodToBad, ge.pBadToGood, ge.lossGood, ge.lossBad}) {
    if (!isProbability(p)) {
      fail("Gilbert-Elliott probabilities must be in [0, 1], got ", p);
      break;
    }
  }
  if (ge.enabled() && !(ge.pBadToGood > 0.0)) {
    fail("Gilbert-Elliott pBadToGood must be > 0 (a bad state with no exit "
         "absorbs the link forever)");
  }

  const hybrid::HybridConfig& hy = config.hybrid;
  if (hy.enabled() && config.protocol != Protocol::kGmp) {
    fail("--fast-forward/--hybrid drive the GMP controller; use --protocol "
         "gmp");
  }
  if (!(std::isfinite(hy.ffTol) && hy.ffTol > 0.0)) {
    fail("--ff-tol must be finite and > 0, got ", hy.ffTol);
  }
  if (!hy.background) {
    if (!hy.foreground.empty()) {
      fail("--foreground only means something with --hybrid");
    }
    return errors;
  }
  if (hy.foreground.empty()) {
    fail("--hybrid needs --foreground (e.g. --foreground 0,1 or "
         "--foreground auto:2)");
  }
  for (const net::FlowId id : hy.foreground) {
    if (std::ranges::none_of(scenario.flows, [id](const net::FlowSpec& f) {
          return f.id == id;
        })) {
      fail("--foreground: scenario '", scenario.name, "' has no flow ", id);
    }
  }
  if (hybrid::Engine::backgroundFlows(scenario.flows, hy).empty()) {
    fail("--foreground covers every flow; nothing left to background (drop "
         "--hybrid for a pure-packet run)");
  }
  if (!config.faults.empty() || imp.enabled()) {
    fail("--hybrid is incompatible with --faults/--per/--ge (the fluid "
         "background model knows nothing about faults or losses)");
  }
  return errors;
}

namespace {

RunMetrics collectMetrics(net::Network& net,
                          const std::optional<gmp::Controller>& controller,
                          const std::optional<hybrid::Engine>& hybridEngine) {
  RunMetrics m;
  const sim::Simulator& sim = net.simulator();
  m.eventsScheduled = sim.scheduledEvents();
  m.eventsExecuted = sim.executedEvents();
  m.eventsCancelled = sim.cancelledEvents();
  m.maxPendingEvents = sim.maxPendingEvents();
  m.framesDelivered = net.framesDelivered();
  m.framesCorrupted = net.framesCorrupted();
  m.framesSuppressed = net.framesSuppressed();
  if (const phys::ChannelImpairments* imp = net.impairments()) {
    m.framesImpaired = imp->framesDropped();
  }
  for (topo::NodeId n = 0; n < net.topology().numNodes(); ++n) {
    m.mac += net.macOf(n).counters();
    const net::NodeStack& stack = net.stack(n);
    m.crashDrops += stack.dropsAtCrash();
    m.deadNeighborDrops += stack.dropsDeadNextHop();
    m.backpressureStalls += stack.backpressureStalls();
    m.queueHighWater = std::max<std::uint64_t>(m.queueHighWater,
                                               stack.queueHighWater());
  }
  if (controller) {
    m.gmpPeriods = controller->periodsRun();
    m.decisions = controller->decisionTotals();
    m.commands = controller->commandsIssued();
    m.staleMeasurementsUsed = controller->staleMeasurementsUsed();
    m.limitsRestored = controller->limitsRestored();
    m.flowsQuarantined = controller->flowsQuarantined();
  }
  if (hybridEngine) {
    const hybrid::HybridStats& hs = hybridEngine->stats();
    m.ffPeriods = hs.ffPeriods;
    m.ffConverged = hs.ffConverged;
    m.seededPackets = hs.seededPackets;
    m.relinearizations = hs.relinearizations;
    m.backgroundFlows = hs.backgroundFlows;
    m.phantomBursts = hybridEngine->phantomBursts();
  }
  return m;
}

}  // namespace

RunResult runScenario(const scenarios::Scenario& scenario,
                      const RunConfig& config) {
  if (const auto errors = validate(config, scenario); !errors.empty()) {
    throw std::invalid_argument(errors.front());
  }

  net::NetworkConfig nc = config.netBase;
  nc.seed = config.seed;
  switch (config.protocol) {
    case Protocol::kDcf80211: nc = baselines::config80211(nc); break;
    case Protocol::kTwoPhase: nc = baselines::config2pp(nc); break;
    case Protocol::kGmp: nc = baselines::configGmp(nc); break;
  }

  // Under hybrid background mode only the foreground partition exists as
  // packet flows; the rest lives in the engine's fluid model.
  const std::vector<net::FlowSpec> packetFlows =
      hybrid::Engine::foregroundFlows(scenario.flows, config.hybrid);
  net::Network net{scenario.topology, nc, packetFlows};
  if (!config.faults.empty()) net.enableFaults(config.faults);

  std::optional<gmp::Controller> controller;
  std::optional<hybrid::Engine> hybridEngine;
  if (config.protocol == Protocol::kGmp) {
    controller.emplace(net, config.gmpParams);
    controller->setTraceSink(config.trace);
    controller->start();
    if (config.hybrid.enabled()) {
      hybridEngine.emplace(net, *controller, scenario.flows, config.gmpParams,
                           config.hybrid);
      hybridEngine->fastForward();
      hybridEngine->start();
    }
  } else if (config.protocol == Protocol::kTwoPhase) {
    const baselines::TwoPhaseAllocator allocator{
        scenario.topology, scenario.flows,
        nc.mac.nominalLinkCapacityPps(nc.packetSize)};
    const auto allocation = allocator.allocate();
    for (const net::FlowSpec& f : scenario.flows) {
      net.setRateLimit(f.id, allocation.totalPps.at(f.id));
    }
  }

  net.run(config.warmup);
  const auto start = net.snapshotDeliveries();
  std::optional<hybrid::Engine::BackgroundSnapshot> bgStart;
  if (hybridEngine) bgStart = hybridEngine->snapshotBackground();
  net.run(config.duration - config.warmup);
  auto rates = net::Network::ratesBetween(start, net.snapshotDeliveries());
  if (hybridEngine) {
    // Fold the fluid background deliveries over the same measured window
    // into the rate map; the summary then spans the whole scenario.
    const auto bgRates = hybrid::Engine::ratesBetween(
        *bgStart, hybridEngine->snapshotBackground());
    for (const auto& [id, pps] : bgRates) rates[id] = pps;
    hybridEngine->stop();
  }

  RunResult result;
  result.protocol = config.protocol;
  std::map<net::FlowId, int> hops;
  std::map<net::FlowId, double> weights;
  const auto bgSpecs =
      hybrid::Engine::backgroundFlows(scenario.flows, config.hybrid);
  const auto isBackground = [&bgSpecs](net::FlowId id) {
    for (const net::FlowSpec& b : bgSpecs) {
      if (b.id == id) return true;
    }
    return false;
  };
  for (const net::FlowSpec& f : scenario.flows) {
    FlowOutcome out;
    out.id = f.id;
    out.name = f.name;
    out.ratePps = rates.at(f.id);
    out.weight = f.weight;
    out.background = isBackground(f.id);
    out.hops = out.background ? hybridEngine->backgroundHops(f.id)
                              : net.hopCount(f.id);
    result.flows.push_back(out);
    hops[f.id] = out.hops;
    weights[f.id] = f.weight;
  }
  result.summary = summarize(rates, hops);
  result.normalizedSummary = summarizeNormalized(rates, weights, hops);
  result.queueDrops = net.totalQueueDrops();
  if (controller) {
    result.violationHistory = controller->violationHistory();
    result.rateHistory = controller->rateHistory();
  }
  result.metrics = collectMetrics(net, controller, hybridEngine);
  return result;
}

}  // namespace maxmin::analysis
