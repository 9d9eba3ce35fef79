#include "hybrid/background_load.hpp"

#include <algorithm>

#include "mac/dcf.hpp"
#include "util/check.hpp"

namespace maxmin::hybrid {
namespace {

/// Below this rate a sender's timer parks instead of scheduling
/// multi-hour gaps; setSenderRate rearms it when the rate comes back.
constexpr double kMinRatePps = 1e-3;

/// A deferred sender may owe at most this many bursts of catch-up;
/// older debt is forgiven (mirrors a real station's finite queue).
constexpr int kMaxDebtBursts = 4;

/// Deterministic per-node phase in [0, 1): staggers burst trains so
/// co-located senders do not start in lockstep.
double phaseOf(topo::NodeId node) {
  const auto h = static_cast<std::uint32_t>(node) * 2654435761u;
  return static_cast<double>(h % 997u) / 997.0;
}

}  // namespace

BackgroundLoad::BackgroundLoad(net::Network& net, Duration perPacket,
                               int batch)
    : net_{net}, perPacket_{perPacket}, batch_{batch} {
  MAXMIN_CHECK(perPacket_ > Duration::zero());
  MAXMIN_CHECK(batch_ >= 1);
}

void BackgroundLoad::addSender(topo::NodeId node) {
  MAXMIN_CHECK(!running_);
  for (const Source& s : sources_) {
    if (s.node == node) return;
  }
  Source& s = sources_.emplace_back(*this, node);
  s.reach.push_back(&net_.macOf(node));
  for (const topo::NodeId nb : net_.topology().csNeighbors(node)) {
    s.reach.push_back(&net_.macOf(nb));
  }
}

void BackgroundLoad::setSenderRate(topo::NodeId node, double pps) {
  MAXMIN_CHECK(pps >= 0.0);
  for (Source& s : sources_) {
    if (s.node != node) continue;
    const bool wasParked = s.pps < kMinRatePps;
    s.pps = pps;
    if (running_ && wasParked && pps >= kMinRatePps && !s.timer.pending()) {
      const Duration iv = interval(s);
      s.due = net_.simulator().now() + iv;
      s.timer.arm(iv);
    }
    return;
  }
  MAXMIN_CHECK_MSG(false, "unregistered background sender " << node);
}

Duration BackgroundLoad::interval(const Source& s) const {
  // `batch` phantom packets per batch/pps seconds; a feasible fluid
  // solution keeps pps * perPacket <= 1, but clamp so occupancy never
  // exceeds the channel even transiently.
  return std::max(perPacket_ * batch_,
                  Duration::seconds(batch_ / s.pps));
}

void BackgroundLoad::fire(Source& s) {
  if (s.pps < kMinRatePps) return;  // parked until the rate returns
  const TimePoint now = net_.simulator().now();
  mac::Dcf& mac = *s.reach.front();
  if (mac.channelBusy()) {
    // A real station defers to the ongoing exchange (or a neighbour's
    // reservation — including other phantom senders, whose bursts
    // charge this MAC too), then re-contends with DIFS + backoff. The
    // countdown persists across lost contentions exactly like DCF
    // freezing (Dcf::freezeBackoff): whole slots elapsed since the
    // last countdown cleared DIFS are credited, so a sender that keeps
    // losing ages toward zero backoff and soon wins — redrawing every
    // time would hand the foreground strict priority. The draw is a
    // deterministic hash so fixed-seed runs stay bit-identical; the
    // due time stays put, so the burst is delayed, not dropped. When
    // only physical energy is visible (reservedUntil in the past),
    // poll at a coarse fraction of the burst length rather than slot
    // granularity.
    const mac::MacParams& mp = mac.params();
    if (s.backoffSlots >= 0 && now > s.countdownStart) {
      const auto elapsed =
          static_cast<int>((now - s.countdownStart).asMicros() /
                           mp.slotTime.asMicros());
      s.backoffSlots -= std::min(elapsed, s.backoffSlots);
    }
    if (s.backoffSlots < 0) {
      const auto h = (static_cast<std::uint32_t>(s.node) * 2654435761u) ^
                     (++s.deferrals * 0x9E3779B9u);
      s.backoffSlots =
          static_cast<int>(h % static_cast<std::uint32_t>(mp.cwMin + 1));
    }
    const TimePoint until = mac.reservedUntil();
    const Duration clear =
        until > now ? until - now
                    : std::max(Duration::micros(1), perPacket_ * batch_ / 4);
    s.countdownStart = now + clear + mp.difs();
    s.timer.arm(clear + mp.difs() + mp.slotTime * s.backoffSlots);
    return;
  }
  for (mac::Dcf* const m : s.reach) m->occupyChannel(perPacket_ * batch_);
  ++bursts_;
  s.backoffSlots = -1;  // countdown consumed by this emission
  const Duration iv = interval(s);
  // Advance the schedule from the *due* time so deferred bursts catch
  // up, but forgive debt beyond kMaxDebtBursts intervals.
  TimePoint next = s.due + iv;
  const TimePoint floor = now - iv * kMaxDebtBursts;
  if (next < floor) next = floor;
  s.due = next;
  s.timer.arm(next > now ? next - now : Duration::micros(1));
}

void BackgroundLoad::start() {
  MAXMIN_CHECK(!running_);
  running_ = true;
  for (Source& s : sources_) {
    if (s.pps < kMinRatePps) continue;
    const Duration iv = interval(s);
    const Duration delay =
        std::max(Duration::micros(1),
                 Duration::seconds(iv.asSeconds() * phaseOf(s.node)));
    s.due = net_.simulator().now() + delay;
    s.timer.arm(delay);
  }
}

void BackgroundLoad::stop() {
  running_ = false;
  for (Source& s : sources_) s.timer.cancel();
}

}  // namespace maxmin::hybrid
