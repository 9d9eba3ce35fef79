#include "phys/impairment.hpp"

#include "util/check.hpp"

namespace maxmin::phys {

double GilbertElliottParams::steadyStateLoss() const {
  if (!enabled()) return 0.0;
  const double denom = pGoodToBad + pBadToGood;
  MAXMIN_CHECK(denom > 0.0);
  const double piBad = pGoodToBad / denom;
  return (1.0 - piBad) * lossGood + piBad * lossBad;
}

namespace {

void checkProbability(double p) { MAXMIN_CHECK(p >= 0.0 && p <= 1.0); }

}  // namespace

ChannelImpairments::ChannelImpairments(ImpairmentConfig config, Rng rng)
    : config_{config}, rng_{rng} {
  checkProbability(config_.per);
  checkProbability(config_.gilbert.pGoodToBad);
  checkProbability(config_.gilbert.pBadToGood);
  checkProbability(config_.gilbert.lossGood);
  checkProbability(config_.gilbert.lossBad);
  if (config_.gilbert.enabled()) {
    MAXMIN_CHECK_MSG(config_.gilbert.pBadToGood > 0.0,
                     "a bad state with no exit absorbs the link forever");
  }
}

bool ChannelImpairments::inScope(FrameKind kind) const {
  switch (config_.scope) {
    case ImpairmentConfig::Scope::kAllFrames: return true;
    case ImpairmentConfig::Scope::kControlFrames:
      return kind == FrameKind::kControl;
    case ImpairmentConfig::Scope::kDataFrames:
      return kind == FrameKind::kData;
  }
  return true;
}

bool ChannelImpairments::shouldDrop(topo::NodeId from, topo::NodeId to,
                                    FrameKind kind) {
  if (!inScope(kind)) return false;

  double lossProbability = config_.per;
  if (config_.gilbert.enabled()) {
    bool& bad = badState_[topo::Link{from, to}];
    bad = rng_.chance(bad ? 1.0 - config_.gilbert.pBadToGood
                          : config_.gilbert.pGoodToBad);
    const double stateLoss =
        bad ? config_.gilbert.lossBad : config_.gilbert.lossGood;
    // Independent processes: lost if either one strikes.
    lossProbability = lossProbability + stateLoss - lossProbability * stateLoss;
  }
  if (lossProbability <= 0.0) return false;
  const bool drop = rng_.chance(lossProbability);
  if (drop) ++framesDropped_;
  return drop;
}

}  // namespace maxmin::phys
