// Core GMP vocabulary: link classification (paper §3), the beta-tolerant
// comparisons of §6.3, and the per-period state snapshot the condition
// checks run against.
//
// Everything in a Snapshot is information a node either measures itself
// or receives from its 2-hop neighborhood via the paper's dissemination
// protocol; the Engine consults only the parts a given node would hold.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <vector>

#include "net/flow.hpp"
#include "topology/cliques.hpp"
#include "topology/link.hpp"

namespace maxmin::gmp {

/// Paper §3.2. Classification of a (virtual) link (i, j) from the buffer
/// states of its endpoints.
enum class LinkType {
  kUnsaturated,        ///< sender buffer unsaturated
  kBufferSaturated,    ///< both saturated: downstream bottleneck backpressure
  kBandwidthSaturated  ///< sender saturated, receiver not: channel is the
                       ///< bottleneck here
};

const char* linkTypeName(LinkType t);

LinkType classifyLink(bool senderSaturated, bool receiverSaturated);

/// "Equal"/"smaller" with the paper's beta-percentage tolerance (§6.3):
/// two values are equal when their difference is below beta percent (of
/// the larger); smaller means smaller by at least that much.
class BetaCompare {
 public:
  explicit BetaCompare(double beta);

  [[nodiscard]] double beta() const { return beta_; }
  [[nodiscard]] bool equal(double a, double b) const;
  [[nodiscard]] bool smaller(double a, double b) const { return a < b && !equal(a, b); }

 private:
  double beta_;
};

/// A virtual link (i_t, j_t): wireless link (from, to) within the virtual
/// network of destination `dest` (paper §5.2).
struct VirtualLinkKey {
  topo::NodeId from = topo::kNoNode;
  topo::NodeId to = topo::kNoNode;
  topo::NodeId dest = topo::kNoNode;

  friend auto operator<=>(const VirtualLinkKey&, const VirtualLinkKey&) =
      default;

  [[nodiscard]] topo::Link wireless() const { return topo::Link{from, to}; }
};

inline std::ostream& operator<<(std::ostream& os, const VirtualLinkKey& k) {
  return os << '(' << k.from << ',' << k.to << ")@" << k.dest;
}

/// Per-period state of one virtual link, as known to its end nodes.
struct VLinkState {
  VirtualLinkKey key;
  LinkType type = LinkType::kUnsaturated;
  double ratePps = 0.0;   ///< measured forwarding rate
  double normRate = 0.0;  ///< mu(i_t, j_t): largest mu carried by packets
  std::vector<net::FlowId> primaryFlows;  ///< flows attaining normRate
};

/// Per-period state of one flow, as known at its source.
struct FlowState {
  net::FlowId id = net::kNoFlow;
  topo::NodeId src = topo::kNoNode;
  topo::NodeId dst = topo::kNoNode;
  double weight = 1.0;
  double desiredPps = 0.0;
  double ratePps = 0.0;  ///< r(f) measured at the source this period
  std::optional<double> limitPps;

  [[nodiscard]] double mu() const { return ratePps / weight; }
};

/// Per-period state of one wireless link, as disseminated 2 hops.
struct WLinkState {
  topo::Link link;
  double occupancy = 0.0;  ///< fraction of the period on the air
  double normRate = 0.0;   ///< max over the link's virtual links
};

struct VirtualNetwork;

/// Everything measured in one period, laid out by the producer's
/// virtual-network index (gmp/virtual_network.hpp): flows in flow order,
/// vlinks by vlink id, wlinks by contention link, saturated by vnode.
struct Snapshot {
  std::shared_ptr<const VirtualNetwork> vnet;
  std::vector<FlowState> flows;
  std::vector<VLinkState> vlinks;
  std::vector<WLinkState> wlinks;
  /// Per vnode: Omega above the saturation threshold.
  std::vector<char> saturated;

  /// Nodes whose measurements are missing and whose cached values have
  /// outlived the staleness TTL (fault runs only). The engine must not
  /// act on anything derived from them.
  std::set<topo::NodeId> staleNodes;
  /// Flows whose path crosses a stale node: their measured rates are
  /// ghosts, so the engine falls back to conservative rate-limit decay.
  std::set<net::FlowId> impairedFlows;

  /// Connected components of the alive graph this period (1 = whole
  /// network reachable; fault runs only).
  int partitions = 1;
  /// Flows whose path crosses a *cut link*: the path is severed outright
  /// (not merely unmeasured), so their measurements are quarantined.
  /// Always a subset of impairedFlows. Node crashes do not quarantine —
  /// staleness bridging handles those.
  std::set<net::FlowId> quarantinedFlows;
  /// Component id of each flow's source (-1 = source down). Flows in the
  /// same component see a locally-consistent maxmin while partitioned.
  std::map<net::FlowId, std::int32_t> flowPartition;

  /// Saturation of the (node, dest) vnode; false when it is not one (or
  /// the snapshot has no index yet).
  [[nodiscard]] bool isSaturated(topo::NodeId node, topo::NodeId dest) const;
};

/// Rate-limit change for one flow source.
struct Command {
  enum class Kind { kSetLimit, kRemoveLimit };
  net::FlowId flow = net::kNoFlow;
  Kind kind = Kind::kSetLimit;
  double limitPps = 0.0;  ///< meaningful for kSetLimit
};

/// Condition violations and adjustment requests of one period, or of a
/// whole run when Controller::decisionTotals() sums them.
struct DecisionCounts {
  int sourceBufferViolations = 0;  ///< source + buffer-saturated conditions
  int bandwidthViolations = 0;
  int reduceRequests = 0;
  int halveRequests = 0;  ///< of reduceRequests: wide-gap halvings
  int increaseRequests = 0;
  int doubleRequests = 0;  ///< of increaseRequests: wide-gap doublings
  int additiveIncreases = 0;
  int limitsRemoved = 0;
  int staleDecays = 0;  ///< conservative decays of flows on stale paths

  DecisionCounts& operator+=(const DecisionCounts& o);
  bool operator==(const DecisionCounts&) const = default;
};

/// What one adjustment period decided, with diagnostics for tests and
/// convergence monitoring.
struct DecisionReport : DecisionCounts {
  std::vector<Command> commands;

  [[nodiscard]] bool conditionsSatisfied() const {
    return sourceBufferViolations == 0 && bandwidthViolations == 0;
  }
};

/// Protocol parameters (paper §6/§7 defaults).
struct GmpParams {
  Duration period = Duration::seconds(4.0);  ///< measurement/adjustment
  double beta = 0.10;                        ///< equality tolerance
  double omegaThreshold = 0.25;              ///< buffer-saturation cutoff
  double bigGapFactor = 3.0;  ///< L1 > 3*S1 triggers halve/double
  double additiveIncreasePps = 10.0;
  double minRatePps = 2.0;  ///< floor for rate limits and adjust bases

  /// A rate limit is removed as unnecessary only when the flow's actual
  /// rate falls below limit * this factor (and the source queue is
  /// unsaturated). Plain beta slack is too twitchy: additive probing
  /// routinely leaves the limit ~beta above a fluctuating actual rate,
  /// and removing a limit that is in fact mediating a congested queue
  /// lets the local source capture it for several periods.
  double removeLimitSlackFactor = 0.5;

  // --- graceful degradation under faults (no effect in fault-free runs) ---

  /// How many periods a node's last good measurement may stand in for a
  /// missing one before the node is declared stale. One period of grace
  /// absorbs a lost report; two distinguishes transient control-plane
  /// loss from a real crash at the paper's 4 s period.
  int measurementTtlPeriods = 2;

  /// Per-period multiplicative decay applied to the rate limit of a flow
  /// whose path crosses a stale node (floored at minRatePps). Acting on
  /// ghost measurements would freeze the old equilibrium in place;
  /// decaying instead cheaply frees the bandwidth the broken path cannot
  /// use while staying ready to ramp back after recovery.
  double staleDecayFactor = 0.5;
};

}  // namespace maxmin::gmp
