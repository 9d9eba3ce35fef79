// Drives the (unmodified) gmp::Engine over a FluidNetwork: the same
// period loop as gmp::Controller, with the Snapshot assembled from fluid
// steady states instead of packet-level measurements. Snapshots point at
// the network's own gmp::VirtualNetwork.
#pragma once

#include <map>
#include <vector>

#include "fluid/fluid_network.hpp"
#include "gmp/engine.hpp"

namespace maxmin::fluid {

/// Outcome of runToFixedPoint: how many fluid periods ran and how far
/// the rates were still moving when it stopped.
struct FixedPointResult {
  int periods = 0;
  bool converged = false;
  /// Smoothed per-period rate movement as a fraction of clique capacity
  /// (GMP's additive probing never stops exactly, so "fixed point" means
  /// this EWMA fell below the tolerance).
  double residual = 1.0;
};

class FluidGmpHarness {
 public:
  FluidGmpHarness(FluidNetwork& network, gmp::GmpParams params);

  /// Run one measurement+adjustment period; returns the engine's report.
  gmp::DecisionReport step();

  /// Run `periods` periods and return the final realized rates.
  std::map<net::FlowId, double> run(int periods);

  /// Iterate periods until the smoothed max per-flow rate change per
  /// period drops below `tol` (relative to clique capacity) or
  /// `maxPeriods` elapse. The hybrid fast-forward path uses this to
  /// reach the steady-state basin before packet injection.
  FixedPointResult runToFixedPoint(double tol, int maxPeriods);

  const gmp::Snapshot& lastSnapshot() const { return lastSnapshot_; }
  const std::vector<int>& violationHistory() const {
    return violationHistory_;
  }

 private:
  [[nodiscard]] gmp::Snapshot buildSnapshot(const FluidState& state) const;

  FluidNetwork& network_;
  gmp::GmpParams params_;
  gmp::Engine engine_;
  gmp::Snapshot lastSnapshot_;
  std::vector<int> violationHistory_;
};

}  // namespace maxmin::fluid
