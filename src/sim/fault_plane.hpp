// Fault injection for the simulation substrate.
//
// A FaultPlane holds the ground truth about which nodes and links are
// currently alive and how far each node's clock is skewed, and mutates
// that state over simulated time from a script (deterministic, explicit
// events) and/or a seeded stochastic churn process (exponential up/down
// sojourns). Consumers query it:
//
//   * phys::Medium suppresses transmissions from dead nodes and
//     receptions at dead nodes / over cut links;
//   * net::Network listens for crash/recover transitions to flush a
//     crashed stack's volatile state;
//   * gmp::Controller staggers period-boundary measurement closes by
//     each node's clock skew.
//
// The plane lives in the sim layer so every layer above can depend on
// it; node ids are plain int32 here (the same representation topo::NodeId
// uses) because sim must not depend on the topology library.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace maxmin::sim {

/// One scripted fault transition.
struct FaultEvent {
  enum class Kind {
    kNodeDown,   ///< crash: node stops transmitting, receiving, forwarding
    kNodeUp,     ///< recover: node rejoins with empty volatile state
    kLinkDown,   ///< cut the (undirected) link between `node` and `peer`
    kLinkUp,     ///< restore the link
    kClockSkew,  ///< set node's period-boundary clock offset to `skew`
  };

  TimePoint at;
  Kind kind = Kind::kNodeDown;
  std::int32_t node = -1;
  std::int32_t peer = -1;            ///< second endpoint for kLink*
  Duration skew = Duration::zero();  ///< for kClockSkew

  bool operator==(const FaultEvent&) const = default;
};

const char* faultEventKindName(FaultEvent::Kind kind);

/// Seeded stochastic churn: each listed node alternates exponential up
/// and down sojourns, starting up at `start`. Disabled unless both means
/// are positive and `nodes` is non-empty.
struct ChurnConfig {
  std::vector<std::int32_t> nodes;
  double meanUpSeconds = 0.0;
  double meanDownSeconds = 0.0;
  TimePoint start;
  /// No new outages begin after `stop`; a node that is down at `stop`
  /// recovers at its already-scheduled instant and then stays up.
  TimePoint stop = TimePoint::max();

  [[nodiscard]] bool enabled() const {
    return !nodes.empty() && meanUpSeconds > 0.0 && meanDownSeconds > 0.0;
  }
  bool operator==(const ChurnConfig&) const = default;
};

/// A full fault schedule: scripted events plus optional churn.
struct FaultScript {
  std::vector<FaultEvent> events;
  ChurnConfig churn;

  [[nodiscard]] bool empty() const { return events.empty() && !churn.enabled(); }
  bool operator==(const FaultScript&) const = default;
};

/// Parse the line-oriented fault-script format used by `maxmin-sim
/// --faults` (either inline text or file contents). Lines are separated
/// by newlines or ';'; '#' starts a comment. Grammar (times in simulated
/// seconds, skews in milliseconds):
///
///   crash <node> <t>
///   recover <node> <t>
///   linkdown <a> <b> <t>
///   linkup <a> <b> <t>
///   skew <node> <ms> [<t>]
///   churn nodes=<a,b,...> up=<sec> down=<sec> [from=<sec>] [until=<sec>]
///
/// Node ids are whole decimal tokens; times, skews and churn means must be
/// finite, non-negative and at most 1e9 s. Throws std::invalid_argument on
/// malformed input.
FaultScript parseFaultScript(std::string_view text);

/// Serialize a script back into the exact grammar parseFaultScript
/// accepts, one statement per line — the replay format the chaos fuzzer
/// emits alongside a failing seed. Every parsed script round-trips
/// exactly. Times and skews are on the microsecond grid: "%.6f" names
/// the tick exactly and the parser rounds the decimal text to the nearest
/// microsecond, so a value like 8.1 s (no exact double) cannot
/// re-quantize one tick low — chaos schedules on 250 ms quantum edges
/// included. Churn means are printed in their shortest exact form.
std::string toScriptText(const FaultScript& script);

/// Observer of fault transitions (e.g. net::Network flushing a crashed
/// node's volatile state). Callbacks fire after the plane's own state has
/// been updated, in listener registration order.
class FaultListener {
 public:
  virtual ~FaultListener() = default;
  virtual void onNodeDown(std::int32_t node) { (void)node; }
  virtual void onNodeUp(std::int32_t node) { (void)node; }
  virtual void onLinkChanged(std::int32_t a, std::int32_t b, bool up) {
    (void)a;
    (void)b;
    (void)up;
  }
};

class FaultPlane {
 public:
  /// The rng is only drawn from when the script's churn is enabled, so a
  /// scripted-only plane stays bit-identical across seeds.
  FaultPlane(Simulator& sim, int numNodes, FaultScript script, Rng rng);

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  /// Register an observer; must outlive the plane's scheduled events.
  void addListener(FaultListener* listener);

  /// Arm one timer per scripted event, in script order, then one per
  /// churn node. Call once, before running.
  void start();

  // --- state queries ------------------------------------------------------
  [[nodiscard]] bool nodeUp(std::int32_t node) const;
  /// True iff both endpoints are up and the undirected link is not cut.
  [[nodiscard]] bool linkUp(std::int32_t a, std::int32_t b) const;
  /// True iff the undirected link is explicitly cut (independent of the
  /// endpoints' up/down state). The partition-aware controller keys its
  /// quarantine decisions on cuts alone: node crashes are handled by the
  /// measurement-staleness machinery, which deliberately bridges short
  /// outages instead of quarantining them.
  [[nodiscard]] bool linkCut(std::int32_t a, std::int32_t b) const;
  [[nodiscard]] Duration clockSkew(std::int32_t node) const;
  /// Largest skew across all nodes (the controller's assembly delay).
  [[nodiscard]] Duration maxClockSkew() const;

  // --- diagnostics --------------------------------------------------------
  [[nodiscard]] std::int64_t crashesInjected() const { return crashesInjected_; }
  [[nodiscard]] std::int64_t recoveriesInjected() const { return recoveriesInjected_; }
  [[nodiscard]] std::int64_t linkCutsInjected() const { return linkCutsInjected_; }

 private:
  /// One scripted event's timer.
  struct ScriptedFault {
    ScriptedFault(FaultPlane& p, const FaultEvent& e)
        : plane{&p},
          event{e},
          timer{p.sim_, bind<&ScriptedFault::fire>(this)} {}
    void fire() { plane->apply(event); }
    FaultPlane* plane;
    FaultEvent event;
    Timer timer;
  };
  /// One churn node's timer: its first firing starts the process at the
  /// churn window, every later one flips the node.
  struct ChurnNode {
    ChurnNode(FaultPlane& p, std::int32_t n)
        : plane{&p}, node{n}, timer{p.sim_, bind<&ChurnNode::fire>(this)} {}
    void fire();
    FaultPlane* plane;
    std::int32_t node;
    bool started = false;
    Timer timer;
  };

  void apply(const FaultEvent& e);
  void setNodeUp(std::int32_t node, bool up);
  /// Arm the next churn transition for `c`'s node.
  void scheduleChurn(ChurnNode& c);
  std::pair<std::int32_t, std::int32_t> normalized(std::int32_t a,
                                                   std::int32_t b) const;
  void checkNode(std::int32_t node) const;

  Simulator& sim_;
  FaultScript script_;
  Rng rng_;
  std::vector<FaultListener*> listeners_;
  bool started_ = false;

  std::vector<bool> up_;
  std::vector<Duration> skew_;
  // Hashed: membership-only (insert/erase/contains, never iterated), so
  // the probe is O(1) on the per-frame linkUp path and no iteration order
  // can leak into results.
  std::unordered_set<std::pair<std::int32_t, std::int32_t>, IdPairHash>
      cutLinks_;

  std::int64_t crashesInjected_ = 0;
  std::int64_t recoveriesInjected_ = 0;
  std::int64_t linkCutsInjected_ = 0;

  // Deques: timers must not move once built.
  std::deque<ScriptedFault> scripted_;
  std::deque<ChurnNode> churn_;
};

std::ostream& operator<<(std::ostream& os, const FaultEvent& e);

}  // namespace maxmin::sim
