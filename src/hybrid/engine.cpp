#include "hybrid/engine.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "net/packet.hpp"
#include "util/check.hpp"

namespace maxmin::hybrid {
namespace {

/// Fluid GMP periods the fast-forward iterates at most before t=0.
constexpr int kFastForwardMaxPeriods = 400;
/// Phantom packets per background channel reservation: more cuts the
/// event rate proportionally but coarsens the busy/idle the MACs see.
constexpr int kBgBatch = 4;

bool isForeground(const HybridConfig& cfg, net::FlowId id) {
  if (!cfg.background) return true;
  return std::ranges::find(cfg.foreground, id) != cfg.foreground.end();
}

}  // namespace

std::vector<net::FlowSpec> Engine::foregroundFlows(
    const std::vector<net::FlowSpec>& all, const HybridConfig& cfg) {
  std::vector<net::FlowSpec> out;
  for (const net::FlowSpec& f : all) {
    if (isForeground(cfg, f.id)) out.push_back(f);
  }
  return out;
}

std::vector<net::FlowSpec> Engine::backgroundFlows(
    const std::vector<net::FlowSpec>& all, const HybridConfig& cfg) {
  std::vector<net::FlowSpec> out;
  for (const net::FlowSpec& f : all) {
    if (!isForeground(cfg, f.id)) out.push_back(f);
  }
  return out;
}

Engine::Engine(net::Network& net, gmp::Controller& controller,
               std::vector<net::FlowSpec> allFlows, gmp::GmpParams gmpParams,
               HybridConfig cfg)
    : net_{net},
      controller_{controller},
      allFlows_{std::move(allFlows)},
      gmpParams_{gmpParams},
      cfg_{std::move(cfg)},
      capacityPps_{
          net.config().mac.nominalLinkCapacityPps(net.config().packetSize)} {
  MAXMIN_CHECK(cfg_.enabled());
  // Flag combinations (faults, impairments, foreground list) are checked
  // by analysis::validate before a run is built.
  if (cfg_.background) bgFlows_ = backgroundFlows(allFlows_, cfg_);
  // The packet network must hold exactly the foreground subset.
  {
    std::set<net::FlowId> want;
    for (const net::FlowSpec& f : foregroundFlows(allFlows_, cfg_)) {
      want.insert(f.id);
    }
    std::set<net::FlowId> have;
    for (const net::FlowSpec& f : net_.flows()) have.insert(f.id);
    MAXMIN_CHECK_MSG(want == have,
                     "network flows do not match the foreground partition");
  }

  if (cfg_.background) {
    bgFluid_.emplace(net_.topology(), bgFlows_, capacityPps_,
                     net_.activeLinks());
    bgHarness_.emplace(*bgFluid_, gmpParams_);
    // The NAV burst covers only the channel *hold* time of one exchange
    // (RTS..ACK with SIFS gaps). The contention overhead that the
    // nominal capacity also prices in — DIFS plus a single station's
    // mean backoff — must NOT be reserved: with several contenders the
    // real inter-exchange gap is the minimum of their countdowns, and
    // the phantom's own deferral/backoff path already supplies its
    // share of idle time dynamically. Reserving the nominal per-packet
    // time instead overcharges dense neighbourhoods by ~25%.
    const mac::MacParams& mp = net_.config().mac;
    bgLoad_.emplace(net_,
                    mp.exchangeAirtime(net_.config().packetSize) +
                        mp.difs() + mp.slotTime * 2,
                    kBgBatch);
    std::set<topo::NodeId> senders;
    for (const auto& path : bgFluid_->paths()) {
      for (std::size_t h = 0; h + 1 < path.size(); ++h) senders.insert(path[h]);
    }
    bgSenders_.assign(senders.begin(), senders.end());
    for (const topo::NodeId n : bgSenders_) bgLoad_->addSender(n);
    integral_.assign(bgFlows_.size(), 0.0);
    currentRates_.assign(bgFlows_.size(), 0.0);
    stats_.backgroundFlows = static_cast<int>(bgFlows_.size());
  }
}

void Engine::fastForward() {
  if (!cfg_.fastForward) return;
  // The all-flow contention structure is already built: bgFluid_ spans the
  // background routes plus the foreground links, and without background
  // mode the controller's links are every flow's links. FluidNetwork
  // checks that the links match the routes of allFlows_.
  const topo::ContentionStructure& contention =
      bgFluid_ ? bgFluid_->contention() : controller_.contention();
  fluid::FluidNetwork all{net_.topology(), allFlows_, capacityPps_,
                          contention};
  fluid::FluidGmpHarness harness{all, gmpParams_};
  const fluid::FixedPointResult fp =
      harness.runToFixedPoint(cfg_.ffTol, kFastForwardMaxPeriods);
  stats_.ffPeriods = fp.periods;
  stats_.ffConverged = fp.converged;
  stats_.ffResidual = fp.residual;

  const fluid::FluidState state = all.evaluate();

  // Inject the foreground operating point: rate limits and piggybacked
  // normalized rates at the sources.
  const gmp::VirtualNetwork& vn = *all.virtualNetwork();
  for (const net::FlowSpec& f : net_.flows()) {
    if (const auto lim = all.rateLimit(f.id)) net_.setRateLimit(f.id, lim);
    const auto i = static_cast<std::size_t>(vn.flowIndex(f.id));
    net_.setSourceMu(f.id, state.rates[i] / f.weight);
  }
  // Background flows inherit the jointly-converged limits so the first
  // re-linearization starts from the same operating point.
  if (bgFluid_) {
    for (const net::FlowSpec& f : bgFlows_) {
      bgFluid_->setRateLimit(f.id, all.rateLimit(f.id));
    }
  }

  controller_.warmStart(buildMeasurements(all, state));
  seedQueues(all, state);
}

// `all` is built over allFlows_, so its flow index i is allFlows_[i].
std::vector<net::NodePeriodMeasurement> Engine::buildMeasurements(
    const fluid::FluidNetwork& all, const fluid::FluidState& state) const {
  const gmp::VirtualNetwork& vn = *all.virtualNetwork();
  const auto numNodes = static_cast<std::size_t>(net_.topology().numNodes());
  std::vector<net::NodePeriodMeasurement> meas(numNodes);
  const double periodSeconds = gmpParams_.period.asSeconds();
  for (std::size_t n = 0; n < numNodes; ++n) {
    meas[n].node = static_cast<topo::NodeId>(n);
    meas[n].periodSeconds = periodSeconds;
  }
  for (std::size_t i = 0; i < allFlows_.size(); ++i) {
    const net::FlowSpec& f = allFlows_[i];
    if (!isForeground(cfg_, f.id)) continue;
    const double rate = state.rates[i];
    const double mu = rate / f.weight;
    const auto& path = all.paths()[i];
    meas[static_cast<std::size_t>(path.front())].localFlowRate[f.id] = rate;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      auto& m = meas[static_cast<std::size_t>(path[h])];
      net::VirtualLinkSample& vs = m.downstream[f.dst];
      vs.packets += static_cast<int>(rate * periodSeconds);
      vs.flowMu[f.id] = mu;
      const bool full = state.saturated[static_cast<std::size_t>(
                            vn.vnodeId(path[h], f.dst))] != 0;
      auto [it, inserted] = m.queueFullFraction.try_emplace(f.dst, 0.0);
      if (full) it->second = 1.0;
    }
  }
  return meas;
}

void Engine::seedQueues(const fluid::FluidNetwork& all,
                        const fluid::FluidState& state) {
  const int queueCap = net_.config().queueCapacity;
  if (queueCap <= 0) return;
  const gmp::VirtualNetwork& vn = *all.virtualNetwork();
  const auto vnodeOf = [&vn](topo::NodeId node, topo::NodeId dest) {
    return static_cast<std::size_t>(vn.vnodeId(node, dest));
  };

  // Which foreground flows (by index) cross each saturated vnode, in
  // flow-id order (allFlows_ is id-ordered per validateFlows).
  const std::size_t vnodes = vn.vnodes.size();
  std::vector<std::vector<std::size_t>> crossing(vnodes);
  for (std::size_t i = 0; i < allFlows_.size(); ++i) {
    const net::FlowSpec& f = allFlows_[i];
    if (!isForeground(cfg_, f.id)) continue;
    const auto& path = all.paths()[i];
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      const std::size_t v = vnodeOf(path[h], f.dst);
      if (state.saturated[v] != 0) crossing[v].push_back(i);
    }
  }

  // Fill each saturated queue round-robin across its flows, then assign
  // per-flow sequence numbers in end-to-end delivery order — the hop
  // nearest the destination drains first — so the sink's duplicate
  // suppression sees a monotone sequence. Seeded packets use negative
  // sequence numbers; real source packets start at 0.
  std::vector<std::vector<std::size_t>> contents(vnodes);
  std::vector<std::vector<std::int64_t>> seqs(vnodes);
  for (std::size_t v = 0; v < vnodes; ++v) {
    const auto& flows = crossing[v];
    if (flows.empty()) continue;
    for (int s = 0; s < queueCap; ++s) {
      contents[v].push_back(flows[static_cast<std::size_t>(s) % flows.size()]);
    }
    seqs[v].assign(contents[v].size(), 0);
  }
  for (std::size_t i = 0; i < allFlows_.size(); ++i) {
    const net::FlowSpec& f = allFlows_[i];
    if (!isForeground(cfg_, f.id)) continue;
    const auto& path = all.paths()[i];
    std::vector<std::pair<std::size_t, std::size_t>> order;  // (vnode, slot)
    for (std::size_t h = path.size() - 1; h-- > 0;) {
      const std::size_t v = vnodeOf(path[h], f.dst);
      for (std::size_t s = 0; s < contents[v].size(); ++s) {
        if (contents[v][s] == i) order.emplace_back(v, s);
      }
    }
    const auto k = static_cast<std::int64_t>(order.size());
    for (std::int64_t j = 0; j < k; ++j) {
      const auto& [v, s] = order[static_cast<std::size_t>(j)];
      seqs[v][s] = -k + j;
    }
  }

  const TimePoint now = net_.simulator().now();
  for (std::size_t v = 0; v < vnodes; ++v) {
    for (std::size_t s = 0; s < contents[v].size(); ++s) {
      const std::size_t i = contents[v][s];
      const net::FlowSpec& f = allFlows_[i];
      auto p = std::make_shared<net::Packet>();
      p->flow = f.id;
      p->src = f.src;
      p->dst = f.dst;
      p->seq = seqs[v][s];
      p->size = net_.config().packetSize;
      p->created = now;
      p->normalizedRate = state.rates[i] / f.weight;
      net_.stack(vn.vnodes[v].first).seedPacket(std::move(p));
      ++stats_.seededPackets;
    }
  }
}

void Engine::start() {
  if (!cfg_.background) return;
  applyBackgroundRates(bgFluid_->evaluate().rates);
  integralAt_ = net_.simulator().now();
  controller_.setPeriodHook(
      [this](const gmp::Snapshot& snap, int) { relinearize(snap); });
  bgLoad_->start();
}

void Engine::stop() {
  if (!cfg_.background) return;
  bgLoad_->stop();
  controller_.setPeriodHook(nullptr);
}

void Engine::relinearize(const gmp::Snapshot& snap) {
  accumulateTo(net_.simulator().now());
  // Fold the packet-measured foreground airtime into the fluid model's
  // clique constraints. The controller's contention links are exactly
  // the extraLinks the background fluid network was built with.
  for (const gmp::WLinkState& wl : snap.wlinks) {
    bgFluid_->setExternalOccupancy(wl.link, std::min(wl.occupancy, 1.0));
  }
  bgHarness_->step();
  std::vector<double> rates;
  for (const gmp::FlowState& fs : bgHarness_->lastSnapshot().flows) {
    rates.push_back(fs.ratePps);
  }
  applyBackgroundRates(std::move(rates));
  ++stats_.relinearizations;
}

void Engine::applyBackgroundRates(std::vector<double> rates) {
  currentRates_ = std::move(rates);
  std::vector<double> senderPps(
      static_cast<std::size_t>(net_.topology().numNodes()), 0.0);
  const auto& paths = bgFluid_->paths();
  for (std::size_t i = 0; i < bgFlows_.size(); ++i) {
    for (std::size_t h = 0; h + 1 < paths[i].size(); ++h) {
      senderPps[static_cast<std::size_t>(paths[i][h])] += currentRates_[i];
    }
  }
  for (const topo::NodeId n : bgSenders_) {
    bgLoad_->setSenderRate(n, senderPps[static_cast<std::size_t>(n)]);
  }
}

void Engine::accumulateTo(TimePoint t) {
  const double dt = (t - integralAt_).asSeconds();
  if (dt <= 0.0) return;
  for (std::size_t i = 0; i < integral_.size(); ++i) {
    integral_[i] += currentRates_[i] * dt;
  }
  integralAt_ = t;
}

Engine::BackgroundSnapshot Engine::snapshotBackground() {
  accumulateTo(net_.simulator().now());
  BackgroundSnapshot snap{net_.simulator().now(), {}};
  for (std::size_t i = 0; i < bgFlows_.size(); ++i) {
    snap.packets[bgFlows_[i].id] = integral_[i];
  }
  return snap;
}

std::map<net::FlowId, double> Engine::ratesBetween(
    const BackgroundSnapshot& from, const BackgroundSnapshot& to) {
  const double dt = (to.at - from.at).asSeconds();
  MAXMIN_CHECK(dt > 0.0);
  std::map<net::FlowId, double> rates;
  for (const auto& [id, packets] : to.packets) {
    rates[id] = (packets - from.packets.at(id)) / dt;
  }
  return rates;
}

int Engine::backgroundHops(net::FlowId id) const {
  MAXMIN_CHECK(bgFluid_.has_value());
  const int i = bgFluid_->virtualNetwork()->flowIndex(id);
  MAXMIN_CHECK_MSG(i >= 0, "unknown background flow " << id);
  const auto& path = bgFluid_->paths()[static_cast<std::size_t>(i)];
  return static_cast<int>(path.size()) - 1;
}

}  // namespace maxmin::hybrid
