// Configuration for the hybrid fluid/packet engine (DESIGN.md §16).
#pragma once

#include <vector>

#include "net/flow.hpp"

namespace maxmin::hybrid {

struct HybridConfig {
  /// Iterate the fluid GMP fixed point before t=0 and inject the
  /// resulting rate limits, source normalized rates, controller
  /// measurement cache, and queue backlogs into the packet world.
  bool fastForward = false;
  /// Fast-forward convergence tolerance: smoothed per-period rate
  /// movement as a fraction of clique capacity (GMP's additive probing
  /// never stops exactly, so this is an EWMA threshold).
  double ffTol = 0.02;

  /// Partition flows: `foreground` ids are packet-simulated end to end,
  /// everything else is advanced by the fluid solver and radiated into
  /// the MACs as deterministic channel occupancy, re-linearized at every
  /// measurement-period boundary.
  bool background = false;
  std::vector<net::FlowId> foreground;

  [[nodiscard]] bool enabled() const { return fastForward || background; }
};

}  // namespace maxmin::hybrid
