#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "phys/medium.hpp"
#include "sim/fault_plane.hpp"
#include "sim/simulator.hpp"
#include "test_timers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace maxmin::phys {
namespace {

/// Records everything the medium tells it.
class RecordingRadio final : public RadioListener {
 public:
  void onChannelBusy() override { ++busyTransitions; }
  void onChannelIdle() override { ++idleTransitions; }
  void onFrameReceived(const Frame& f) override { received.push_back(f); }
  void onFrameCorrupted(const Frame& f) override { corrupted.push_back(f); }
  void onTxEnd() override { ++txEnds; }

  int busyTransitions = 0;
  int txEnds = 0;
  int idleTransitions = 0;
  std::vector<Frame> received;
  std::vector<Frame> corrupted;
};

Frame makeFrame(topo::NodeId from, topo::NodeId to, std::int64_t micros) {
  Frame f;
  f.kind = FrameKind::kData;
  f.transmitter = from;
  f.addressee = to;
  f.duration = Duration::micros(micros);
  return f;
}

struct Fixture {
  explicit Fixture(std::vector<topo::Point> pts,
                   topo::RadioRanges ranges = {})
      : topo{topo::Topology::fromPositions(std::move(pts), ranges)},
        medium{sim, topo},
        radios(static_cast<std::size_t>(topo.numNodes())) {
    for (topo::NodeId n = 0; n < topo.numNodes(); ++n) {
      medium.attachRadio(n, &radios[static_cast<std::size_t>(n)]);
    }
  }
  sim::Simulator sim;
  topo::Topology topo;
  Medium medium;
  std::vector<RecordingRadio> radios;
};

TEST(Medium, DeliversFrameToAllNodesInTxRange) {
  Fixture f{{{0, 0}, {200, 0}, {400, 0}, {800, 0}}};
  f.medium.startTransmission(makeFrame(1, 2, 100));
  f.sim.run();
  // Nodes 0 and 2 are within 250 m of node 1; node 3 is not.
  EXPECT_EQ(f.radios[0].received.size(), 1u);
  EXPECT_EQ(f.radios[2].received.size(), 1u);
  EXPECT_TRUE(f.radios[3].received.empty());
  EXPECT_TRUE(f.radios[1].received.empty());  // no self-reception
  EXPECT_EQ(f.medium.framesDelivered(), 2u);
  // Only the sender hears of the frame end.
  EXPECT_EQ(f.radios[1].txEnds, 1);
  EXPECT_EQ(f.radios[0].txEnds + f.radios[2].txEnds + f.radios[3].txEnds, 0);
}

TEST(Medium, BusyIdleTransitionsWithinCsRange) {
  Fixture f{{{0, 0}, {200, 0}, {400, 0}, {800, 0}}};
  f.medium.startTransmission(makeFrame(0, 1, 100));
  f.sim.run();
  // 200 and 400 m sense (<= 550); 800 m does not.
  EXPECT_EQ(f.radios[1].busyTransitions, 1);
  EXPECT_EQ(f.radios[1].idleTransitions, 1);
  EXPECT_EQ(f.radios[2].busyTransitions, 1);
  EXPECT_EQ(f.radios[3].busyTransitions, 0);
  EXPECT_EQ(f.radios[0].busyTransitions, 0);  // own tx not sensed
}

TEST(Medium, OverlappingTransmissionsCorruptReceptions) {
  // 0 --- 1 --- 2, spacing 400 m: 0 and 2 cannot sense each other? 800 m
  // apart -> beyond cs range; both reach node 1? 400 <= 250 is false...
  // Use spacing 200: 0 and 2 are 400 apart (sense each other) but we start
  // both at t=0 so neither deferred.
  Fixture f{{{0, 0}, {200, 0}, {400, 0}}};
  f.medium.startTransmission(makeFrame(0, 1, 100));
  f.medium.startTransmission(makeFrame(2, 1, 100));
  f.sim.run();
  EXPECT_TRUE(f.radios[1].received.empty());
  EXPECT_EQ(f.radios[1].corrupted.size(), 2u);
}

TEST(Medium, HiddenTerminalCollisionAtReceiverOnly) {
  // 0 at x=0, 1 at x=200, 2 at x=760: 0-2 distance 760 > 550 (hidden),
  // 2-1 distance 560 > 550... adjust: 2 at x=740 -> 2-1 = 540 <= 550
  // (interferes at 1) and 0-2 = 740 > 550 (mutually hidden).
  Fixture f{{{0, 0}, {200, 0}, {740, 0}}};
  f.medium.startTransmission(makeFrame(0, 1, 100));
  f.sim.runUntil(TimePoint::origin() + Duration::micros(50));
  // Node 2 cannot sense node 0; it transmits mid-reception.
  f.medium.startTransmission(makeFrame(2, 1, 100));
  f.sim.run();
  EXPECT_TRUE(f.radios[1].received.empty());
  EXPECT_EQ(f.radios[1].corrupted.size(), 1u);  // only frame from 0 decodable
}

TEST(Medium, LaterFrameCorruptedByOngoingEnergy) {
  Fixture f{{{0, 0}, {200, 0}, {400, 0}}};
  f.medium.startTransmission(makeFrame(0, 1, 200));
  f.sim.runUntil(TimePoint::origin() + Duration::micros(50));
  f.medium.startTransmission(makeFrame(2, 1, 100));
  f.sim.run();
  // Both frames overlap at node 1: both corrupted.
  EXPECT_TRUE(f.radios[1].received.empty());
  EXPECT_EQ(f.radios[1].corrupted.size(), 2u);
}

TEST(Medium, ReceiverTransmittingLosesIncomingFrame) {
  Fixture f{{{0, 0}, {200, 0}}};
  f.medium.startTransmission(makeFrame(0, 1, 100));
  f.medium.startTransmission(makeFrame(1, 0, 100));
  f.sim.run();
  // Each node was transmitting while the other's frame arrived.
  EXPECT_TRUE(f.radios[0].received.empty());
  EXPECT_TRUE(f.radios[1].received.empty());
  EXPECT_EQ(f.radios[0].corrupted.size(), 1u);
  EXPECT_EQ(f.radios[1].corrupted.size(), 1u);
}

TEST(Medium, SequentialTransmissionsBothDelivered) {
  Fixture f{{{0, 0}, {200, 0}, {400, 0}}};
  f.medium.startTransmission(makeFrame(0, 1, 100));
  f.sim.runUntil(TimePoint::origin() + Duration::micros(100));
  f.medium.startTransmission(makeFrame(2, 1, 100));
  f.sim.run();
  EXPECT_EQ(f.radios[1].received.size(), 2u);
  EXPECT_TRUE(f.radios[1].corrupted.empty());
}

TEST(Medium, SenseBusyQueries) {
  Fixture f{{{0, 0}, {200, 0}, {800, 0}}};
  EXPECT_FALSE(f.medium.senseBusy(1));
  f.medium.startTransmission(makeFrame(0, 1, 100));
  EXPECT_TRUE(f.medium.senseBusy(1));
  EXPECT_FALSE(f.medium.senseBusy(2));  // out of cs range
  EXPECT_FALSE(f.medium.senseBusy(0));  // own tx
  EXPECT_TRUE(f.medium.isTransmitting(0));
  f.sim.run();
  EXPECT_FALSE(f.medium.senseBusy(1));
  EXPECT_FALSE(f.medium.isTransmitting(0));
}

TEST(Medium, DoubleTransmitBySameNodeRejected) {
  Fixture f{{{0, 0}, {200, 0}}};
  f.medium.startTransmission(makeFrame(0, 1, 100));
  EXPECT_THROW(f.medium.startTransmission(makeFrame(0, 1, 100)),
               InvariantViolation);
}

TEST(Medium, SlotReuseAfterCompletion) {
  Fixture f{{{0, 0}, {200, 0}}};
  for (int i = 0; i < 5; ++i) {
    f.medium.startTransmission(makeFrame(0, 1, 50));
    f.sim.run();
  }
  EXPECT_EQ(f.radios[1].received.size(), 5u);
}

TEST(Medium, SimultaneousStartBothCorrupted) {
  // Same-instant starts at mutually-sensing nodes still collide at the
  // common receiver.
  Fixture f{{{0, 0}, {200, 0}, {400, 0}, {600, 0}}};
  f.medium.startTransmission(makeFrame(0, 1, 100));
  f.medium.startTransmission(makeFrame(3, 2, 100));
  f.sim.run();
  // Node 1 is within cs range of 3 (400 m)? |200-600|=400 <= 550 yes.
  EXPECT_TRUE(f.radios[1].received.empty());
  EXPECT_TRUE(f.radios[2].received.empty());
  EXPECT_EQ(f.radios[1].corrupted.size(), 1u);
  EXPECT_EQ(f.radios[2].corrupted.size(), 1u);
}

TEST(Medium, StartInsideBusyCallbackRejected) {
  // Busy/idle callbacks run after the energy pass; a start from inside
  // one would see a half-finished pass, so the medium refuses it.
  struct Starter final : RadioListener {
    Medium* medium = nullptr;
    void onChannelBusy() override {
      medium->startTransmission(makeFrame(1, 0, 50));
    }
    void onChannelIdle() override {}
    void onFrameReceived(const Frame&) override {}
    void onFrameCorrupted(const Frame&) override {}
    void onTxEnd() override {}
  };
  sim::Simulator sim;
  const auto topo = topo::Topology::fromPositions({{0, 0}, {200, 0}});
  Medium medium{sim, topo};
  RecordingRadio quiet;
  Starter starter;
  starter.medium = &medium;
  medium.attachRadio(0, &quiet);
  medium.attachRadio(1, &starter);
  EXPECT_THROW(medium.startTransmission(makeFrame(0, 1, 50)),
               InvariantViolation);
}

// --- reference model ---------------------------------------------------------
//
// A seeded script of starts and node crashes/recoveries is driven through
// Medium and through a brute-force model that keeps every transmission's
// interval in event order (start and finish event indices) and decides
// each verdict and each busy/idle edge by scanning all intervals. The two
// must agree entry for entry: deliveries, corruptions, and the global
// order of busy/idle callbacks.

struct ScriptStep {
  std::int64_t atUs;
  topo::NodeId from;
  topo::NodeId to;
  std::int64_t durationUs;
};

struct ReferenceScript {
  std::vector<ScriptStep> steps;  // ascending atUs; ties run in list order
  sim::FaultScript faults;        // crash/recover 5 us off the 10 us grid
};

/// Each script step schedules the step this many places after it.
constexpr std::size_t kStepLookahead = 2;

/// Parked radios (no busy/idle callbacks) in the reference runs.
bool parkedInReference(topo::NodeId n) { return n % 7 == 3; }

std::string logEntry(std::int64_t us, char kind, topo::NodeId node,
                     topo::NodeId from = topo::kNoNode) {
  std::ostringstream os;
  os << "t=" << us << ' ' << kind << " at " << node;
  if (from != topo::kNoNode) os << " from " << from;
  return os.str();
}

ReferenceScript makeReferenceScript(const topo::Topology& topo,
                                    std::uint64_t seed) {
  Rng rng{seed};
  const auto n = topo.numNodes();
  auto randomNeighbor = [&](topo::NodeId a) {
    const auto nb = topo.neighbors(a);
    return nb.empty() ? topo::kNoNode
                      : nb[static_cast<std::size_t>(rng.uniformInt(
                            0, static_cast<std::int64_t>(nb.size()) - 1))];
  };
  ReferenceScript script;
  auto crash = [&](topo::NodeId node, std::int64_t downUs, std::int64_t upUs) {
    script.faults.events.push_back(sim::FaultEvent{
        TimePoint::origin() + Duration::micros(downUs),
        sim::FaultEvent::Kind::kNodeDown, node});
    script.faults.events.push_back(sim::FaultEvent{
        TimePoint::origin() + Duration::micros(upUs),
        sim::FaultEvent::Kind::kNodeUp, node});
  };

  // Background traffic on a 10 us grid: same-instant starts (step 0),
  // same-instant starts and finishes (grid-aligned durations), and a
  // bias toward senders next to the previous one, which are often in
  // the middle of receiving it.
  std::int64_t t = 0;
  topo::NodeId last = 0;
  for (int i = 0; i < 1500; ++i) {
    t += rng.chance(0.3) ? 0 : 10 * rng.uniformInt(1, 25);
    topo::NodeId from = static_cast<topo::NodeId>(rng.uniformInt(0, n - 1));
    if (rng.chance(0.4)) {
      if (const topo::NodeId nb = randomNeighbor(last); nb != topo::kNoNode) {
        from = nb;
      }
    }
    script.steps.push_back(
        ScriptStep{t, from, randomNeighbor(from), 10 * rng.uniformInt(1, 30)});
    last = from;
    if (rng.chance(0.03)) {
      const auto node = static_cast<topo::NodeId>(rng.uniformInt(0, n - 1));
      const std::int64_t down = t + 10 * rng.uniformInt(0, 20) + 5;
      crash(node, down, down + 10 * rng.uniformInt(1, 20));
    }
  }
  // Silent starts inside receptions: a receiver crashes, starts a null
  // transmission, ends it and recovers while a long frame to it is still
  // on the air. Such a start corrupts nothing: it radiates nothing.
  for (int i = 0; i < 100; ++i) {
    const std::int64_t at = 10 * rng.uniformInt(0, t / 10);
    const auto a = static_cast<topo::NodeId>(rng.uniformInt(0, n - 1));
    const topo::NodeId r = randomNeighbor(a);
    if (r == topo::kNoNode) continue;
    script.steps.push_back(ScriptStep{at, a, r, 400});
    crash(r, at + 15, at + 95);
    script.steps.push_back(ScriptStep{at + 20, r, a, 50});
  }
  std::stable_sort(script.steps.begin(), script.steps.end(),
                   [](const ScriptStep& x, const ScriptStep& y) {
                     return x.atUs < y.atUs;
                   });
  std::stable_sort(script.faults.events.begin(), script.faults.events.end(),
                   [](const sim::FaultEvent& x, const sim::FaultEvent& y) {
                     return x.at < y.at;
                   });
  return script;
}

/// What the model saw, to show the script exercised every interaction.
struct ReferenceCoverage {
  int sameInstantStarts = 0;
  int finishThenStartSameInstant = 0;
  int startThenFinishSameInstant = 0;
  int receiverStartsMidReception = 0;
  int silentStartInsideDelivery = 0;
  int multiEdgePasses = 0;
  int delivered = 0;
  int corrupted = 0;
};

std::vector<std::string> runReferenceModel(const topo::Topology& topo,
                                           const ReferenceScript& script,
                                           ReferenceCoverage& cover) {
  constexpr int kOpen = INT32_MAX;  // finish event not reached yet
  struct Tx {
    topo::NodeId from;
    bool silent;
    int startIdx;
    int finishIdx;
  };
  struct Event {
    std::int64_t atUs;
    std::uint64_t seq;
    int kind;  // 0 fault, 1 step, 2 finish
    std::size_t ref;
    bool operator>(const Event& o) const {
      return atUs != o.atUs ? atUs > o.atUs : seq > o.seq;
    }
  };
  const auto n = static_cast<std::size_t>(topo.numNodes());
  std::vector<Tx> txs;
  std::vector<int> sending(n, -1);  // tx index per node
  std::vector<bool> up(n, true);
  std::vector<std::string> log;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t seq = 0;
  // The real run schedules its faults first (FaultPlane::start), then
  // the first two steps; every later step is scheduled two steps ahead,
  // so a finish and a start at one instant come in either order.
  for (std::size_t i = 0; i < script.faults.events.size(); ++i) {
    const auto us =
        (script.faults.events[i].at - TimePoint::origin()).asMicros();
    queue.push(Event{us, seq++, 0, i});
  }
  for (std::size_t i = 0; i < kStepLookahead; ++i) {
    queue.push(Event{script.steps[i].atUs, seq++, 1, i});
  }

  auto senses = [&](topo::NodeId v) {  // radiating transmissions heard at v
    int count = 0;
    for (const Tx& u : txs) {
      if (!u.silent && u.finishIdx == kOpen && topo.inCsRange(u.from, v)) {
        ++count;
      }
    }
    return count;
  };
  auto lostAt = [&](const Tx& tx, topo::NodeId r) {
    for (const Tx& u : txs) {
      if (&u == &tx) continue;
      const bool overlaps =
          u.startIdx < tx.finishIdx && u.finishIdx > tx.startIdx;
      if (!u.silent && overlaps && topo.inCsRange(u.from, r)) return true;
      if (u.from != r) continue;
      const bool atStart =
          u.startIdx < tx.startIdx && u.finishIdx > tx.startIdx;
      const bool atEnd =
          u.startIdx < tx.finishIdx && u.finishIdx > tx.finishIdx;
      const bool radiatedInside =
          !u.silent && u.startIdx > tx.startIdx && u.startIdx < tx.finishIdx;
      if (atStart || atEnd || radiatedInside) return true;
    }
    return false;
  };

  int eventIdx = 0;
  std::int64_t lastStartUs = -1;
  std::int64_t lastFinishUs = -1;
  while (!queue.empty()) {
    const Event e = queue.top();
    queue.pop();
    const int idx = eventIdx++;
    if (e.kind == 0) {
      const sim::FaultEvent& f = script.faults.events[e.ref];
      up[static_cast<std::size_t>(f.node)] =
          f.kind == sim::FaultEvent::Kind::kNodeUp;
    } else if (e.kind == 1) {
      const ScriptStep& step = script.steps[e.ref];
      const auto s = static_cast<std::size_t>(step.from);
      if (sending[s] < 0) {
        if (lastStartUs == e.atUs) ++cover.sameInstantStarts;
        if (lastFinishUs == e.atUs) ++cover.finishThenStartSameInstant;
        lastStartUs = e.atUs;
        const bool silent = !up[s];
        for (const Tx& u : txs) {
          if (!u.silent && u.finishIdx == kOpen &&
              topo.areNeighbors(u.from, step.from)) {
            ++cover.receiverStartsMidReception;
            break;
          }
        }
        sending[s] = static_cast<int>(txs.size());
        txs.push_back(Tx{step.from, silent, idx, kOpen});
        queue.push(Event{e.atUs + step.durationUs, seq++, 2,
                         static_cast<std::size_t>(sending[s])});
        if (!silent) {
          int edges = 0;
          for (const topo::NodeId v : topo.csNeighbors(step.from)) {
            if (!parkedInReference(v) && senses(v) == 1) {
              log.push_back(logEntry(e.atUs, 'B', v));
              ++edges;
            }
          }
          cover.multiEdgePasses += edges >= 2 ? 1 : 0;
        }
      }
      if (const std::size_t next = e.ref + kStepLookahead;
          next < script.steps.size()) {
        queue.push(Event{script.steps[next].atUs, seq++, 1, next});
      }
    } else {
      Tx& tx = txs[e.ref];
      tx.finishIdx = idx;
      sending[static_cast<std::size_t>(tx.from)] = -1;
      if (lastStartUs == e.atUs) ++cover.startThenFinishSameInstant;
      lastFinishUs = e.atUs;
      // The sender hears of its frame end last ('E'), silent or not.
      if (tx.silent) {
        log.push_back(logEntry(e.atUs, 'E', tx.from));
        continue;
      }
      for (const topo::NodeId v : topo.csNeighbors(tx.from)) {
        if (!parkedInReference(v) && senses(v) == 0) {
          log.push_back(logEntry(e.atUs, 'I', v));
        }
      }
      for (const topo::NodeId r : topo.neighbors(tx.from)) {
        if (!up[static_cast<std::size_t>(r)] ||
            !up[static_cast<std::size_t>(tx.from)]) {
          continue;  // suppressed: a down end hears nothing
        }
        const bool lost = lostAt(tx, r);
        log.push_back(logEntry(e.atUs, lost ? 'C' : 'D', r, tx.from));
        ++(lost ? cover.corrupted : cover.delivered);
        if (lost) continue;
        for (const Tx& u : txs) {
          if (u.from == r && u.silent && u.startIdx > tx.startIdx &&
              u.finishIdx < tx.finishIdx) {
            ++cover.silentStartInsideDelivery;
            break;
          }
        }
      }
      log.push_back(logEntry(e.atUs, 'E', tx.from));
    }
  }
  return log;
}

/// Logs, in arrival order, every callback the medium makes.
class LoggingRadio final : public RadioListener {
 public:
  LoggingRadio(const sim::Simulator& sim, topo::NodeId self,
               std::vector<std::string>& log)
      : sim_{sim}, self_{self}, log_{log} {}
  void onChannelBusy() override { log_.push_back(logEntry(now(), 'B', self_)); }
  void onChannelIdle() override { log_.push_back(logEntry(now(), 'I', self_)); }
  void onFrameReceived(const Frame& f) override {
    log_.push_back(logEntry(now(), 'D', self_, f.transmitter));
  }
  void onFrameCorrupted(const Frame& f) override {
    log_.push_back(logEntry(now(), 'C', self_, f.transmitter));
  }
  void onTxEnd() override { log_.push_back(logEntry(now(), 'E', self_)); }

 private:
  std::int64_t now() const {
    return (sim_.now() - TimePoint::origin()).asMicros();
  }
  const sim::Simulator& sim_;
  topo::NodeId self_;
  std::vector<std::string>& log_;
};

std::vector<std::string> runReferenceMedium(const topo::Topology& topo,
                                            const ReferenceScript& script) {
  sim::Simulator sim;
  Medium medium{sim, topo};
  std::vector<std::string> log;
  std::vector<LoggingRadio> radios;
  radios.reserve(static_cast<std::size_t>(topo.numNodes()));
  for (topo::NodeId v = 0; v < topo.numNodes(); ++v) {
    radios.emplace_back(sim, v, log);
    medium.attachRadio(v, &radios.back());
    if (parkedInReference(v)) medium.setListening(v, false);
  }
  sim::FaultPlane plane{sim, topo.numNodes(), script.faults, Rng{1}};
  medium.setFaultPlane(&plane);
  plane.start();

  simtest::Posts posts{sim};
  std::function<void(std::size_t)> runStep = [&](std::size_t i) {
    const ScriptStep& step = script.steps[i];
    if (!medium.isTransmitting(step.from)) {
      medium.startTransmission(makeFrame(step.from, step.to, step.durationUs));
    }
    if (const std::size_t next = i + kStepLookahead;
        next < script.steps.size()) {
      posts.post(Duration::micros(script.steps[next].atUs - step.atUs),
                 [&runStep, next] { runStep(next); });
    }
  };
  for (std::size_t i = 0; i < kStepLookahead; ++i) {
    posts.post(Duration::micros(script.steps[i].atUs),
               [&runStep, i] { runStep(i); });
  }
  sim.run();
  return log;
}

TEST(Medium, MatchesBruteForceIntervalModel) {
  ReferenceCoverage cover;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng placement{seed};
    std::vector<topo::Point> pts;
    for (int i = 0; i < 30; ++i) {
      pts.push_back(
          {placement.uniformReal(0, 1100), placement.uniformReal(0, 1100)});
    }
    const auto topo = topo::Topology::fromPositions(pts);

    const ReferenceScript script = makeReferenceScript(topo, seed);
    const std::vector<std::string> expected =
        runReferenceModel(topo, script, cover);
    const std::vector<std::string> actual = runReferenceMedium(topo, script);
    const std::size_t common = std::min(actual.size(), expected.size());
    const auto diverge = static_cast<std::size_t>(
        std::mismatch(actual.begin(), actual.begin() + common,
                      expected.begin())
            .first -
        actual.begin());
    ASSERT_EQ(diverge, common)
        << "#" << diverge << ": medium says '" << actual[diverge]
        << "', model says '" << expected[diverge] << "'";
    ASSERT_EQ(actual.size(), expected.size());
  }
  // The scripts reach every interaction the epoch rule and the deferred
  // edge callbacks have to get right.
  EXPECT_GT(cover.sameInstantStarts, 0);
  EXPECT_GT(cover.finishThenStartSameInstant, 0);
  EXPECT_GT(cover.startThenFinishSameInstant, 0);
  EXPECT_GT(cover.receiverStartsMidReception, 0);
  EXPECT_GT(cover.silentStartInsideDelivery, 0);
  EXPECT_GT(cover.multiEdgePasses, 0);
  EXPECT_GT(cover.delivered, 0);
  EXPECT_GT(cover.corrupted, 0);
}

/// Logs what the medium reports through its observer hook.
class ObserverLog final : public MediumObserver {
 public:
  struct Entry {
    char what;  ///< 'S'tart, 'D'elivery, 'C'orruption
    topo::NodeId transmitter;
    topo::NodeId node;  ///< addressee ('S') or receiver
  };

  void onTransmissionStart(const Frame& f, TimePoint) override {
    entries.push_back({'S', f.transmitter, f.addressee});
  }
  void onDelivery(const Frame& f, topo::NodeId r, TimePoint) override {
    entries.push_back({'D', f.transmitter, r});
  }
  void onCorruption(const Frame& f, topo::NodeId r, TimePoint) override {
    entries.push_back({'C', f.transmitter, r});
  }

  [[nodiscard]] int count(char what, topo::NodeId transmitter,
                          topo::NodeId node) const {
    return static_cast<int>(std::ranges::count_if(entries, [&](const Entry& e) {
      return e.what == what && e.transmitter == transmitter && e.node == node;
    }));
  }

  std::vector<Entry> entries;
};

TEST(Medium, ObserverSeesStartsDeliveriesAndCorruptions) {
  Fixture f{{{0, 0}, {200, 0}, {400, 0}}};
  ObserverLog log;
  f.medium.setObserver(&log);
  // Clean delivery 0->1, then a collision at 1 (0 and 2 overlap).
  f.medium.startTransmission(makeFrame(0, 1, 100));
  f.sim.run();
  f.medium.startTransmission(makeFrame(0, 1, 100));
  f.medium.startTransmission(makeFrame(2, 1, 100));
  f.sim.run();

  EXPECT_EQ(std::ranges::count(log.entries, 'S', &ObserverLog::Entry::what),
            3);
  EXPECT_EQ(log.count('S', 0, 1), 2);
  EXPECT_EQ(log.count('S', 2, 1), 1);
  EXPECT_EQ(log.count('D', 0, 1), 1);
  EXPECT_EQ(log.count('C', 0, 1), 1);
  EXPECT_EQ(log.count('C', 2, 1), 1);
}

}  // namespace
}  // namespace maxmin::phys

