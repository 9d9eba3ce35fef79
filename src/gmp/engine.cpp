#include "gmp/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gmp/virtual_network.hpp"
#include "util/check.hpp"

namespace maxmin::gmp {

DecisionCounts& DecisionCounts::operator+=(const DecisionCounts& o) {
  sourceBufferViolations += o.sourceBufferViolations;
  bandwidthViolations += o.bandwidthViolations;
  reduceRequests += o.reduceRequests;
  halveRequests += o.halveRequests;
  increaseRequests += o.increaseRequests;
  doubleRequests += o.doubleRequests;
  additiveIncreases += o.additiveIncreases;
  limitsRemoved += o.limitsRemoved;
  staleDecays += o.staleDecays;
  return *this;
}

const char* linkTypeName(LinkType t) {
  switch (t) {
    case LinkType::kUnsaturated: return "unsaturated";
    case LinkType::kBufferSaturated: return "buffer-saturated";
    case LinkType::kBandwidthSaturated: return "bandwidth-saturated";
  }
  return "?";
}

LinkType classifyLink(bool senderSaturated, bool receiverSaturated) {
  if (!senderSaturated) return LinkType::kUnsaturated;
  return receiverSaturated ? LinkType::kBufferSaturated
                           : LinkType::kBandwidthSaturated;
}

BetaCompare::BetaCompare(double beta) : beta_{beta} {
  MAXMIN_CHECK(beta >= 0.0 && beta < 1.0);
}

bool BetaCompare::equal(double a, double b) const {
  const double larger = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= beta_ * larger;
}

Engine::Engine(topo::ContentionStructure contention, GmpParams params)
    : contention_{std::move(contention)}, params_{params}, cmp_{params.beta} {}

double Engine::adjustBase(const FlowState& f) const {
  // Requests scale the flow's current measured rate; floor it so a
  // starved flow can still be lifted.
  return std::max(f.ratePps, params_.minRatePps);
}

DecisionReport Engine::decide(const Snapshot& snapshot) const {
  MAXMIN_CHECK(snapshot.vnet != nullptr);
  const VirtualNetwork& vn = *snapshot.vnet;
  MAXMIN_CHECK_MSG(snapshot.flows.size() == vn.flowSource.size() &&
                       snapshot.vlinks.size() == vn.vlinks.size() &&
                       snapshot.saturated.size() == vn.vnodes.size() &&
                       snapshot.wlinks.size() == contention_.links.size() &&
                       vn.linkVlinks.offset.size() ==
                           contention_.links.size() + 1,
                   "snapshot is not laid out by its virtual-network index");

  // Graceful degradation: the unmodified condition checks run on the
  // healthy remainder of the network, and only the flows whose
  // measurements are ghosts decay.
  DecisionReport report;
  const Live live = liveParts(snapshot);
  std::vector<Request> requests(snapshot.flows.size());
  checkSourceAndBufferConditions(snapshot, live, requests, report);
  checkBandwidthCondition(snapshot, live, requests, report);
  resolveRequests(snapshot, live, requests, report);
  decayImpairedFlows(snapshot, report);
  return report;
}

Engine::Live Engine::liveParts(const Snapshot& s) {
  const VirtualNetwork& vn = *s.vnet;
  const auto up = [&](topo::NodeId n) { return !s.staleNodes.contains(n); };
  Live live{std::vector<char>(s.flows.size(), 1),
            std::vector<char>(s.vlinks.size(), 1),
            std::vector<char>(s.wlinks.size(), 1), s.saturated};
  for (std::size_t i = 0; i < s.flows.size(); ++i) {
    live.flows[i] = !s.impairedFlows.contains(s.flows[i].id);
  }
  for (std::size_t v = 0; v < vn.vlinks.size(); ++v) {
    const VirtualLinkKey& k = vn.vlinks[v];
    live.vlinks[v] = up(k.from) && up(k.to) && up(k.dest);
  }
  for (std::size_t li = 0; li < s.wlinks.size(); ++li) {
    live.wlinks[li] = up(s.wlinks[li].link.from) && up(s.wlinks[li].link.to);
  }
  for (std::size_t n = 0; n < vn.vnodes.size(); ++n) {
    const auto [node, dest] = vn.vnodes[n];
    live.saturated[n] = live.saturated[n] != 0 && up(node) && up(dest);
  }
  return live;
}

void Engine::decayImpairedFlows(const Snapshot& s,
                                DecisionReport& report) const {
  // A flow crossing a stale node may be pushing packets into a black
  // hole at its old equilibrium rate. Freezing the limit would hold that
  // equilibrium on ghost data; removing it would let the source flood.
  // Multiplicative decay toward the floor frees the bandwidth quickly
  // while leaving a probe rate alive to notice recovery.
  for (const FlowState& f : s.flows) {
    if (!s.impairedFlows.contains(f.id)) continue;
    const double base =
        f.limitPps ? *f.limitPps : std::max(f.ratePps, params_.minRatePps);
    const double target =
        std::max(params_.minRatePps, base * params_.staleDecayFactor);
    report.commands.push_back(Command{f.id, Command::Kind::kSetLimit, target});
    ++report.staleDecays;
  }
}

namespace {

/// Visit the snapshot index of each live primary flow of `vl`.
void forEachPrimary(const Snapshot& s, const std::vector<char>& liveFlows,
                    const VLinkState& vl, const auto& visit) {
  for (const net::FlowId id : vl.primaryFlows) {
    const int i = s.vnet->flowIndex(id);
    if (i >= 0 && liveFlows[static_cast<std::size_t>(i)] != 0) {
      visit(static_cast<std::size_t>(i));
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Source condition + buffer-saturated condition (§5.3, tested as in §6.3)
// ---------------------------------------------------------------------------
//
// For every saturated virtual node i_t:
//   L1 = max mu over { upstream virtual links of i_t, local flows at i_t }
//   S1 = min mu over { local flows at i_t, buffer-saturated upstream links }
// The conditions hold iff S1 == L1 (beta-equal). Otherwise the node asks
// the mu==L1 parties to reduce and the mu==S1 buffer-saturated/local
// parties to increase, by halving/doubling while the gap is wide
// (L1 > bigGap*S1) and by beta-percentage steps once it is narrow.

void Engine::checkSourceAndBufferConditions(const Snapshot& s,
                                            const Live& live,
                                            std::vector<Request>& requests,
                                            DecisionReport& report) const {
  const VirtualNetwork& vn = *s.vnet;
  std::vector<const VLinkState*> upstream;
  std::vector<std::size_t> localFlows;
  for (std::size_t n = 0; n < vn.vnodes.size(); ++n) {
    if (live.saturated[n] == 0) continue;
    upstream.clear();
    for (const std::size_t v : vn.vnodeUpstream.row(n)) {
      if (live.vlinks[v] != 0) upstream.push_back(&s.vlinks[v]);
    }
    localFlows.clear();
    for (const std::size_t i : vn.vnodeLocal.row(n)) {
      if (live.flows[i] != 0) localFlows.push_back(i);
    }

    double l1 = -std::numeric_limits<double>::infinity();
    for (const VLinkState* vl : upstream) l1 = std::max(l1, vl->normRate);
    for (const std::size_t i : localFlows) l1 = std::max(l1, s.flows[i].mu());

    double s1 = std::numeric_limits<double>::infinity();
    for (const std::size_t i : localFlows) s1 = std::min(s1, s.flows[i].mu());
    for (const VLinkState* vl : upstream) {
      if (vl->type == LinkType::kBufferSaturated)
        s1 = std::min(s1, vl->normRate);
    }

    if (!std::isfinite(l1) || !std::isfinite(s1)) continue;  // nothing to equalize
    if (cmp_.equal(s1, l1)) continue;                        // satisfied
    ++report.sourceBufferViolations;

    const bool wideGap = l1 > params_.bigGapFactor * s1;
    const double reduceFactor = wideGap ? 0.5 : 1.0 - params_.beta;
    const double increaseFactor = wideGap ? 2.0 : 1.0 + params_.beta;

    const auto reduce = [&](std::size_t i) {
      requests[i].add(true, adjustBase(s.flows[i]) * reduceFactor);
      ++report.reduceRequests;
      if (wideGap) ++report.halveRequests;
    };
    const auto increase = [&](std::size_t i) {
      if (!s.flows[i].limitPps.has_value()) return;
      requests[i].add(false, adjustBase(s.flows[i]) * increaseFactor);
      ++report.increaseRequests;
      if (wideGap) ++report.doubleRequests;
    };

    for (const VLinkState* vl : upstream) {
      if (cmp_.equal(vl->normRate, l1)) {
        forEachPrimary(s, live.flows, *vl, reduce);
      }
      if (vl->type == LinkType::kBufferSaturated &&
          cmp_.equal(vl->normRate, s1)) {
        forEachPrimary(s, live.flows, *vl, increase);
      }
    }
    for (const std::size_t i : localFlows) {
      if (cmp_.equal(s.flows[i].mu(), l1)) reduce(i);
      if (cmp_.equal(s.flows[i].mu(), s1)) increase(i);
    }
  }
}

// ---------------------------------------------------------------------------
// Bandwidth-saturated condition (§5.3, tested as in §6.3)
// ---------------------------------------------------------------------------
//
// For each wireless link (i,j) with a bandwidth-saturated virtual link:
// take its bandwidth-saturated virtual link with the smallest mu; treat
// the cliques of (i,j) with the largest channel occupancy as saturated.
// The condition holds iff that mu is the largest normalized rate in at
// least one saturated clique. Otherwise every link in those saturated
// cliques reduces primaries at L2 (the cliques' largest wireless-link mu)
// by beta, and raises bandwidth-saturated virtual links whose mu equals
// the deprived link's mu by beta.

void Engine::checkBandwidthCondition(const Snapshot& s, const Live& live,
                                     std::vector<Request>& requests,
                                     DecisionReport& report) const {
  const VirtualNetwork& vn = *s.vnet;
  const auto& cliques = contention_.cliques;
  // One pass over every clique: its channel occupancy (sum over member
  // links; masked links contribute no airtime) and its largest live
  // member normalized rate.
  std::vector<double> cliqueOccupancy(cliques.size(), 0.0);
  std::vector<double> cliqueTopRate(cliques.size(), 0.0);
  for (std::size_t c = 0; c < cliques.size(); ++c) {
    for (const int li : cliques[c].linkIndices) {
      const auto l = static_cast<std::size_t>(li);
      if (live.wlinks[l] == 0) continue;
      cliqueOccupancy[c] += s.wlinks[l].occupancy;
      cliqueTopRate[c] = std::max(cliqueTopRate[c], s.wlinks[l].normRate);
    }
  }
  // visitedBy[k] = the violating link whose members last included k, so
  // each member is acted on once however many saturated cliques share it.
  std::vector<std::size_t> visitedBy(contention_.links.size(),
                                     contention_.links.size());

  for (std::size_t li = 0; li < contention_.links.size(); ++li) {
    // Smallest-mu bandwidth-saturated virtual link of this wireless link.
    const VLinkState* deprived = nullptr;
    for (const std::size_t v : vn.linkVlinks.row(li)) {
      const VLinkState& vl = s.vlinks[v];
      if (live.vlinks[v] == 0 || vl.type != LinkType::kBandwidthSaturated)
        continue;
      if (deprived == nullptr || vl.normRate < deprived->normRate)
        deprived = &vl;
    }
    if (deprived == nullptr) continue;

    const auto& cliqueIdxs = contention_.cliquesOfLink[li];
    MAXMIN_CHECK(!cliqueIdxs.empty());

    // Saturated cliques: those whose occupancy beta-equals the maximum.
    double maxOcc = 0.0;
    for (int c : cliqueIdxs) {
      maxOcc = std::max(maxOcc, cliqueOccupancy[static_cast<std::size_t>(c)]);
    }
    const auto saturatedClique = [&](int c) {
      return cmp_.equal(cliqueOccupancy[static_cast<std::size_t>(c)], maxOcc);
    };

    // Does the deprived virtual link top at least one saturated clique?
    bool satisfiedSomewhere = false;
    double l2 = 0.0;
    for (int c : cliqueIdxs) {
      if (!saturatedClique(c)) continue;
      const double m = cliqueTopRate[static_cast<std::size_t>(c)];
      l2 = std::max(l2, m);
      if (!cmp_.smaller(deprived->normRate, m)) {
        satisfiedSomewhere = true;
        break;
      }
    }
    if (satisfiedSomewhere) continue;
    ++report.bandwidthViolations;

    // Requests fold by minimum and the counters count distinct members,
    // so the visiting order does not show in the report.
    for (int c : cliqueIdxs) {
      if (!saturatedClique(c)) continue;
      for (const int memberIdx :
           cliques[static_cast<std::size_t>(c)].linkIndices) {
        const auto km = static_cast<std::size_t>(memberIdx);
        if (visitedBy[km] == li) continue;
        visitedBy[km] = li;
        for (const std::size_t v : vn.linkVlinks.row(km)) {
          const VLinkState& vl = s.vlinks[v];
          if (live.vlinks[v] == 0) continue;
          if (cmp_.equal(vl.normRate, l2)) {
            forEachPrimary(s, live.flows, vl, [&](std::size_t i) {
              requests[i].add(true,
                              adjustBase(s.flows[i]) * (1.0 - params_.beta));
              ++report.reduceRequests;
            });
          }
          if (vl.type == LinkType::kBandwidthSaturated &&
              cmp_.equal(vl.normRate, deprived->normRate)) {
            forEachPrimary(s, live.flows, vl, [&](std::size_t i) {
              if (!s.flows[i].limitPps.has_value()) return;
              requests[i].add(false,
                              adjustBase(s.flows[i]) * (1.0 + params_.beta));
              ++report.increaseRequests;
            });
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Request resolution (control-packet sweep, §6.3) + rate-limit condition
// ---------------------------------------------------------------------------
//
// The control packet keeps a single request per flow: any reduction
// discards all increases, and among reductions the largest one (smallest
// target) wins; among increases the smallest wins.
//
// For sources with a rate limit and no request at all:
//   * limit binding (actual rate beta-equal to it): additively probe
//     upward (rate-limit condition);
//   * limit slack and the source's virtual node unsaturated: the limit is
//     genuinely unnecessary — remove it (§6.3);
//   * limit slack but the source's virtual node saturated: keep it. The
//     flow shares a congested queue with relayed traffic, and an ungated
//     local source refills every freed buffer slot ahead of upstream
//     senders, so dropping the limit here would let the local flow
//     capture the queue and defeat the equalization the conditions just
//     established.

void Engine::resolveRequests(const Snapshot& s, const Live& live,
                             const std::vector<Request>& requests,
                             DecisionReport& report) const {
  for (std::size_t i = 0; i < s.flows.size(); ++i) {
    if (live.flows[i] == 0) continue;
    const FlowState& f = s.flows[i];
    if (const Request& r = requests[i]; r.any) {
      double limit = std::max(r.reduceTarget, params_.minRatePps);
      if (!r.reduce) {
        // An increase never tightens an existing limit.
        limit = r.increaseTarget;
        if (f.limitPps) limit = std::max(limit, *f.limitPps);
      }
      report.commands.push_back(Command{f.id, Command::Kind::kSetLimit, limit});
      continue;
    }

    if (!f.limitPps.has_value()) continue;

    const bool binding = !cmp_.smaller(f.ratePps, *f.limitPps);
    if (binding) {
      // Rate-limit condition: probe upward.
      report.commands.push_back(Command{
          f.id, Command::Kind::kSetLimit,
          *f.limitPps + params_.additiveIncreasePps});
      ++report.additiveIncreases;
    } else {
      const int src = s.vnet->flowSource[i];
      const bool sourceSaturated =
          src >= 0 && live.saturated[static_cast<std::size_t>(src)] != 0;
      const bool clearlySlack =
          f.ratePps < *f.limitPps * params_.removeLimitSlackFactor;
      if (!sourceSaturated && clearlySlack) {
        report.commands.push_back(Command{f.id, Command::Kind::kRemoveLimit});
        ++report.limitsRemoved;
      }
    }
  }
}

}  // namespace maxmin::gmp
