// Hybrid fluid/packet engine (DESIGN.md §16): couples the fluid GMP
// model to the packet simulator.
//
// Two composable modes:
//
//  * Fast-forward — before t=0, iterate the fluid GMP fixed point to
//    near-convergence and inject the result into the packet world: each
//    foreground flow's rate limit and piggybacked normalized rate, the
//    controller's staleness-bridging measurement cache, and per-node
//    queue backlogs along every fluid-saturated backpressure chain. The
//    packet simulation starts inside the steady-state basin instead of
//    spending many measurement periods converging to it.
//
//  * Background load — the scenario's flows are partitioned into
//    foreground (packet-simulated end to end; the gmp::Controller runs
//    over exactly these) and background (advanced by the fluid solver).
//    At every measurement-period boundary the engine re-linearizes:
//    packet-measured foreground airtime per wireless link folds into the
//    fluid model as external per-clique occupancy, one fluid GMP period
//    advances the background allocation, and the updated background
//    rates are radiated back into the MACs as deterministic phantom
//    reservations (BackgroundLoad) the foreground DCF defers to.
//
// The engine runs entirely on the network's event clock, so fixed-seed
// hybrid runs are bit-reproducible. analysis::validate refuses fault
// scripts and channel impairments with background mode: the fluid model
// knows nothing about faults or losses.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "fluid/fluid_gmp.hpp"
#include "fluid/fluid_network.hpp"
#include "gmp/controller.hpp"
#include "hybrid/background_load.hpp"
#include "hybrid/config.hpp"
#include "net/network.hpp"

namespace maxmin::hybrid {

struct HybridStats {
  int ffPeriods = 0;
  bool ffConverged = false;
  double ffResidual = 0.0;
  std::int64_t seededPackets = 0;
  int relinearizations = 0;
  int backgroundFlows = 0;
};

class Engine {
 public:
  /// `allFlows` is the full scenario flow list; `net` must have been
  /// built over exactly foregroundFlows(allFlows, cfg).
  Engine(net::Network& net, gmp::Controller& controller,
         std::vector<net::FlowSpec> allFlows, gmp::GmpParams gmpParams,
         HybridConfig cfg);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The packet-simulated subset of `all` under `cfg` (== `all` when
  /// background mode is off).
  static std::vector<net::FlowSpec> foregroundFlows(
      const std::vector<net::FlowSpec>& all, const HybridConfig& cfg);
  static std::vector<net::FlowSpec> backgroundFlows(
      const std::vector<net::FlowSpec>& all, const HybridConfig& cfg);

  /// Run the fluid fixed point and inject its state (no-op unless
  /// cfg.fastForward). Call before the first net.run().
  void fastForward();

  /// Engage the background machinery: initial fluid solve, phantom
  /// occupancy sources, and the controller period hook (no-op unless
  /// cfg.background). Call after controller.start(), before net.run().
  void start();
  void stop();

  /// Cumulative fluid background delivery estimate, diffable across the
  /// measured window exactly like net::Network::DeliverySnapshot.
  struct BackgroundSnapshot {
    TimePoint at;
    std::map<net::FlowId, double> packets;
  };
  [[nodiscard]] BackgroundSnapshot snapshotBackground();
  static std::map<net::FlowId, double> ratesBetween(
      const BackgroundSnapshot& from, const BackgroundSnapshot& to);

  /// Routed hop count of a background flow (foreground hops come from
  /// the Network).
  [[nodiscard]] int backgroundHops(net::FlowId id) const;

  [[nodiscard]] const HybridStats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t phantomBursts() const {
    return bgLoad_ ? bgLoad_->burstsEmitted() : 0;
  }

 private:
  /// Synthesize per-node period-0 measurements from the all-flow fluid
  /// network's state for the controller's warm start (foreground flows
  /// only).
  [[nodiscard]] std::vector<net::NodePeriodMeasurement> buildMeasurements(
      const fluid::FluidNetwork& all, const fluid::FluidState& state) const;
  /// Fill the queues along every fluid-saturated foreground backpressure
  /// chain with synthetic in-transit packets.
  void seedQueues(const fluid::FluidNetwork& all,
                  const fluid::FluidState& state);
  /// Controller period hook: fold measured foreground occupancy into the
  /// fluid model, advance it one GMP period, push new phantom rates.
  void relinearize(const gmp::Snapshot& snap);
  /// Install `rates` (by background flow index) as the current
  /// background rates: the delivery integral's rates and the per-sender
  /// phantom rates.
  void applyBackgroundRates(std::vector<double> rates);
  void accumulateTo(TimePoint t);

  net::Network& net_;
  gmp::Controller& controller_;
  std::vector<net::FlowSpec> allFlows_;
  gmp::GmpParams gmpParams_;
  HybridConfig cfg_;
  double capacityPps_;

  std::vector<net::FlowSpec> bgFlows_;
  std::vector<topo::NodeId> bgSenders_;  ///< registered phantom senders
  std::optional<fluid::FluidNetwork> bgFluid_;
  std::optional<fluid::FluidGmpHarness> bgHarness_;
  std::optional<BackgroundLoad> bgLoad_;

  /// Fluid delivery integral per background flow index (packets),
  /// advanced at the current rates between re-linearizations.
  std::vector<double> integral_;
  std::vector<double> currentRates_;  ///< pkts/s, same index
  TimePoint integralAt_;

  HybridStats stats_;
};

}  // namespace maxmin::hybrid
