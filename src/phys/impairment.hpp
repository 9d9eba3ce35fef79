// Stochastic channel impairments, layered under the protocol-interference
// collision model: frames that would decode cleanly can still be lost to
// channel error. Two processes compose per directed link:
//
//   * an independent per-frame packet error rate (PER), and
//   * a Gilbert–Elliott two-state Markov channel (good/bad) advanced once
//     per frame, with a per-state loss probability — the standard model
//     for bursty wireless loss.
//
// Impairments can target all frames, only broadcast control frames, or
// only data-path frames, which is what lets experiments stress GMP's
// control plane (dissemination, piggybacked buffer states) separately
// from the data plane.
//
// A dropped frame is reported to the receiver as a corrupted frame (CRC
// failure), exactly like a collision: the MAC's EIFS defer and retry
// machinery see nothing new.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "phys/frame.hpp"
#include "topology/link.hpp"
#include "util/rng.hpp"

namespace maxmin::phys {

/// Gilbert–Elliott channel parameters. The defaults (see DESIGN.md) give
/// ~20% average loss in bursts a few frames long when enabled with
/// pGoodToBad > 0.
struct GilbertElliottParams {
  double pGoodToBad = 0.0;  ///< per-frame transition probability
  double pBadToGood = 0.25;
  double lossGood = 0.0;
  double lossBad = 1.0;

  [[nodiscard]] bool enabled() const { return pGoodToBad > 0.0; }
  /// Long-run average loss probability of the two-state chain.
  [[nodiscard]] double steadyStateLoss() const;
};

struct ImpairmentConfig {
  enum class Scope {
    kAllFrames,
    kControlFrames,  ///< broadcast kControl frames only
    kDataFrames,     ///< kData frames only (MAC handshakes unaffected)
  };

  double per = 0.0;  ///< independent per-frame error rate
  GilbertElliottParams gilbert;
  Scope scope = Scope::kAllFrames;

  [[nodiscard]] bool enabled() const { return per > 0.0 || gilbert.enabled(); }
};

class ChannelImpairments {
 public:
  ChannelImpairments(ImpairmentConfig config, Rng rng);

  const ImpairmentConfig& config() const { return config_; }

  /// Decide the fate of one frame on the directed link from -> to.
  /// Advances the link's Gilbert–Elliott state; draws from the
  /// impairment RNG stream only (never perturbs other subsystems).
  bool shouldDrop(topo::NodeId from, topo::NodeId to, FrameKind kind);

  [[nodiscard]] std::int64_t framesDropped() const { return framesDropped_; }

 private:
  [[nodiscard]] bool inScope(FrameKind kind) const;

  ImpairmentConfig config_;
  Rng rng_;
  /// Per-directed-link channel state: true = bad.
  std::unordered_map<topo::Link, bool, topo::LinkHash> badState_;
  std::int64_t framesDropped_ = 0;
};

}  // namespace maxmin::phys
