// Tests for the fault-injection substrate: the fault-script parser, the
// FaultPlane node/link/skew state machine, churn determinism, the named
// RNG streams that keep fault injection from perturbing seeded runs, and
// the Gilbert-Elliott channel impairment statistics.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "phys/impairment.hpp"
#include "sim/chaos.hpp"
#include "sim/fault_plane.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace maxmin {
namespace {

TimePoint at(double seconds) {
  return TimePoint::origin() + Duration::seconds(seconds);
}

// --- script parsing ----------------------------------------------------------

TEST(FaultScriptParse, FullGrammar) {
  const auto script = sim::parseFaultScript(
      "# outage of node 2 plus a flaky link\n"
      "crash 2 10.5\n"
      "recover 2 20\n"
      "linkdown 0 1 5; linkup 0 1 6  # inline form\n"
      "skew 3 150\n"
      "skew 1 40 12\n");
  ASSERT_EQ(script.events.size(), 6u);
  EXPECT_EQ(script.events[0].kind, sim::FaultEvent::Kind::kNodeDown);
  EXPECT_EQ(script.events[0].node, 2);
  EXPECT_EQ(script.events[0].at, at(10.5));
  EXPECT_EQ(script.events[1].kind, sim::FaultEvent::Kind::kNodeUp);
  EXPECT_EQ(script.events[2].kind, sim::FaultEvent::Kind::kLinkDown);
  EXPECT_EQ(script.events[2].peer, 1);
  EXPECT_EQ(script.events[3].kind, sim::FaultEvent::Kind::kLinkUp);
  EXPECT_EQ(script.events[4].kind, sim::FaultEvent::Kind::kClockSkew);
  EXPECT_EQ(script.events[4].skew, Duration::millis(150));
  EXPECT_EQ(script.events[4].at, TimePoint::origin());
  EXPECT_EQ(script.events[5].at, at(12.0));
  EXPECT_FALSE(script.churn.enabled());
}

TEST(FaultScriptParse, Churn) {
  const auto script = sim::parseFaultScript(
      "churn nodes=1,3 up=30 down=5 from=10 until=200");
  EXPECT_TRUE(script.churn.enabled());
  EXPECT_EQ(script.churn.nodes, (std::vector<std::int32_t>{1, 3}));
  EXPECT_DOUBLE_EQ(script.churn.meanUpSeconds, 30.0);
  EXPECT_DOUBLE_EQ(script.churn.meanDownSeconds, 5.0);
  EXPECT_EQ(script.churn.start, at(10.0));
  EXPECT_EQ(script.churn.stop, at(200.0));
}

TEST(FaultScriptParse, RejectsMalformedInput) {
  EXPECT_THROW(sim::parseFaultScript("explode 1 2"), std::invalid_argument);
  EXPECT_THROW(sim::parseFaultScript("crash 1"), std::invalid_argument);
  EXPECT_THROW(sim::parseFaultScript("crash x 5"), std::invalid_argument);
  EXPECT_THROW(sim::parseFaultScript("crash -1 5"), std::invalid_argument);
  EXPECT_THROW(sim::parseFaultScript("skew 1 -20"), std::invalid_argument);
  EXPECT_THROW(sim::parseFaultScript("linkdown 0 1"), std::invalid_argument);
  EXPECT_THROW(sim::parseFaultScript("churn nodes=1 up=10"),
               std::invalid_argument);
  EXPECT_THROW(sim::parseFaultScript("churn nodes=1 up=10 down=2 what=3"),
               std::invalid_argument);
  // Node ids are whole tokens; times, skews and churn means are finite,
  // non-negative and at most 1e9 s.
  for (const char* bad :
       {"crash 3x 5", "crash 3.5 5", "crash 99999999999 5",
        "linkdown 0 1y 5", "churn nodes=1,2x up=10 down=2",
        "crash 3 1e300", "crash 3 nan", "crash 3 inf", "crash 3 -5",
        "linkdown 0 1 1e300", "linkup 0 1 -1", "skew 2 1e300",
        "skew 2 nan", "skew 2 5 -1", "skew 2 5 1e300",
        "churn nodes=1 up=nan down=2", "churn nodes=1 up=10 down=1e300",
        "churn nodes=1 up=-1 down=2", "churn nodes=1 up=10 down=2 from=nan",
        "churn nodes=1 up=10 down=2 from=-3",
        "churn nodes=1 up=10 down=2 until=1e300"}) {
    EXPECT_THROW(sim::parseFaultScript(bad), std::invalid_argument) << bad;
  }
  // The horizon itself is accepted.
  EXPECT_NO_THROW(sim::parseFaultScript("crash 3 1e9"));
}

TEST(FaultScriptParse, EmptyAndComments) {
  EXPECT_TRUE(sim::parseFaultScript("").empty());
  EXPECT_TRUE(sim::parseFaultScript("# nothing\n\n  ; ;\n").empty());
}

// --- the plane's state machine ----------------------------------------------

struct RecordingListener final : sim::FaultListener {
  std::vector<std::pair<std::int32_t, bool>> nodeEvents;
  std::vector<std::tuple<std::int32_t, std::int32_t, bool>> linkEvents;
  void onNodeDown(std::int32_t node) override {
    nodeEvents.emplace_back(node, false);
  }
  void onNodeUp(std::int32_t node) override {
    nodeEvents.emplace_back(node, true);
  }
  void onLinkChanged(std::int32_t a, std::int32_t b, bool up) override {
    linkEvents.emplace_back(a, b, up);
  }
};

// --- fuzzing -----------------------------------------------------------------

/// Seeded mutation fuzzer for parseFaultScript (no libFuzzer): every input
/// either parses or throws std::invalid_argument with a message, and
/// every script that parses survives toScriptText -> parse unchanged.
class FaultScriptFuzzer {
 public:
  explicit FaultScriptFuzzer(std::uint64_t seed) : rng_{seed} {
    // Every statement of the grammar (sim/fault_plane.hpp), alone and in
    // combination, plus serialized scripts.
    corpus_ = {
        "crash 3 10",
        "recover 3 20.5",
        "linkdown 1 2 5",
        "linkup 1 2 7.25",
        "skew 4 2.5",
        "skew 4 -0 12",
        "churn nodes=1,2,3 up=30 down=5 from=10 until=200",
        "churn nodes=0 up=0.1234567 down=1e-3",
        "crash 0 1; recover 0 2 # flap\nlinkdown 0 1 3;linkup 0 1 4",
        "# comment only\n\n;;  \t\n",
        "skew 7 0.000001 0.000001\nchurn nodes=5,,6 up=1 down=2\n",
    };
    sim::FaultScript built;
    built.events.push_back({TimePoint::origin() + Duration::micros(8'100'000),
                            sim::FaultEvent::Kind::kClockSkew, 2, -1,
                            Duration::micros(4'100)});
    built.churn.nodes = {4, 9};
    built.churn.meanUpSeconds = 1.0 / 3.0;
    built.churn.meanDownSeconds = 2.5;
    built.churn.start = at(3.0);
    built.churn.stop = at(90.0);
    corpus_.push_back(sim::toScriptText(built));
    sim::ChaosConfig chaos;
    chaos.numNodes = 6;
    chaos.relayNodes = {1, 2};
    chaos.links = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
    Rng chaosRng = Rng{seed}.stream("chaos");
    corpus_.push_back(
        sim::toScriptText(sim::generateChaosSchedule(chaos, chaosRng)));
  }

  /// A seed with one to three mutations applied.
  std::string next() {
    std::string text = pick(corpus_);
    const auto rounds = rng_.uniformInt(1, 3);
    for (std::int64_t i = 0; i < rounds; ++i) {
      switch (rng_.uniformInt(0, 2)) {
        case 0: flipByte(text); break;
        case 1: spliceToken(text); break;
        default: swapNumber(text); break;
      }
    }
    return text;
  }

 private:
  static constexpr std::string_view kBytes =
      "0123456789 .-+eE;#=,\n\t\0xnaifcrshkdwup\xff";
  static constexpr std::array<std::string_view, 12> kNumbers = {
      "nan", "1e300", "-0", "3x", "", "inf", "-1", "1e9",
      "1e-7", "2147483648", "0x10", "1000000000.000001"};

  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(v.size()) - 1))];
  }
  std::size_t index(std::size_t size) {
    return static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(size) - 1));
  }

  void flipByte(std::string& text) {
    if (text.empty()) return;
    text[index(text.size())] = kBytes[index(kBytes.size())];
  }

  /// Byte ranges of the whitespace-separated tokens of `text`.
  static std::vector<std::pair<std::size_t, std::size_t>> tokens(
      const std::string& text) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t i = 0;
    auto space = [&text](std::size_t k) {
      return std::isspace(static_cast<unsigned char>(text[k])) != 0;
    };
    while (i < text.size()) {
      while (i < text.size() && space(i)) ++i;
      const std::size_t start = i;
      while (i < text.size() && !space(i)) ++i;
      if (i > start) out.emplace_back(start, i - start);
    }
    return out;
  }

  /// Replace, duplicate or drop a token, using a token of another seed.
  void spliceToken(std::string& text) {
    const auto mine = tokens(text);
    const std::string& donor = pick(corpus_);
    const auto theirs = tokens(donor);
    if (mine.empty() || theirs.empty()) return;
    const auto [at, len] = mine[index(mine.size())];
    const auto [from, flen] = theirs[index(theirs.size())];
    const std::string piece = donor.substr(from, flen);
    switch (rng_.uniformInt(0, 2)) {
      case 0: text.replace(at, len, piece); break;
      case 1: text.insert(at, piece + " "); break;
      default: text.erase(at, len); break;
    }
  }

  /// Replace a token — or the value of a key=value token — by one of the
  /// numbers parsers get wrong.
  void swapNumber(std::string& text) {
    const auto mine = tokens(text);
    if (mine.empty()) return;
    auto [at, len] = mine[index(mine.size())];
    if (const auto eq = text.substr(at, len).find('=');
        eq != std::string::npos) {
      at += eq + 1;
      len -= eq + 1;
    }
    text.replace(at, len, kNumbers[index(kNumbers.size())]);
  }

  Rng rng_;
  std::vector<std::string> corpus_;
};

TEST(FaultScriptParse, FuzzedInputsParseOrFailWithAMessage) {
  FaultScriptFuzzer fuzz{20261017};
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string input = fuzz.next();
    SCOPED_TRACE(::testing::Message()
                 << "input #" << i << ": '" << input << "'");
    sim::FaultScript script;
    try {
      script = sim::parseFaultScript(input);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string_view{e.what()}, "");
      ++rejected;
      continue;
    }
    ++parsed;
    const std::string text = sim::toScriptText(script);
    sim::FaultScript again;
    ASSERT_NO_THROW(again = sim::parseFaultScript(text)) << text;
    EXPECT_EQ(again, script) << text;
    EXPECT_EQ(sim::toScriptText(again), text);
  }
  // The corpus keeps both paths busy.
  EXPECT_GT(parsed, 50);
  EXPECT_GT(rejected, 50);
}

TEST(FaultPlane, ScriptedEventsDriveState) {
  sim::Simulator simulator;
  RecordingListener listener;
  sim::FaultPlane plane{simulator, 4,
                        sim::parseFaultScript("crash 2 10; recover 2 20;"
                                              "linkdown 0 1 5; linkup 0 1 15"),
                        Rng{1}};
  plane.addListener(&listener);
  plane.start();

  EXPECT_TRUE(plane.nodeUp(2));
  EXPECT_TRUE(plane.linkUp(0, 1));

  simulator.runUntil(at(7.0));
  EXPECT_FALSE(plane.linkUp(0, 1));
  EXPECT_FALSE(plane.linkUp(1, 0));  // undirected
  EXPECT_TRUE(plane.nodeUp(0));      // endpoints themselves stay up

  simulator.runUntil(at(12.0));
  EXPECT_FALSE(plane.nodeUp(2));
  EXPECT_FALSE(plane.linkUp(2, 3));  // links of a down node are down

  simulator.runUntil(at(25.0));
  EXPECT_TRUE(plane.nodeUp(2));
  EXPECT_TRUE(plane.linkUp(0, 1));
  EXPECT_TRUE(plane.linkUp(2, 3));

  EXPECT_EQ(plane.crashesInjected(), 1);
  EXPECT_EQ(plane.recoveriesInjected(), 1);
  EXPECT_EQ(plane.linkCutsInjected(), 1);
  ASSERT_EQ(listener.nodeEvents.size(), 2u);
  EXPECT_EQ(listener.nodeEvents[0], (std::pair<std::int32_t, bool>{2, false}));
  EXPECT_EQ(listener.nodeEvents[1], (std::pair<std::int32_t, bool>{2, true}));
  ASSERT_EQ(listener.linkEvents.size(), 2u);
}

TEST(FaultPlane, RedundantTransitionsAreIdempotent) {
  sim::Simulator simulator;
  RecordingListener listener;
  sim::FaultPlane plane{
      simulator, 2,
      sim::parseFaultScript("crash 1 1; crash 1 2; recover 1 3; recover 1 4"),
      Rng{1}};
  plane.addListener(&listener);
  plane.start();
  simulator.runUntil(at(10.0));
  EXPECT_EQ(plane.crashesInjected(), 1);
  EXPECT_EQ(plane.recoveriesInjected(), 1);
  EXPECT_EQ(listener.nodeEvents.size(), 2u);
}

TEST(FaultPlane, OriginSkewAppliesBeforeRunning) {
  sim::Simulator simulator;
  sim::FaultPlane plane{simulator, 3, sim::parseFaultScript("skew 1 80"),
                        Rng{1}};
  plane.start();
  EXPECT_EQ(plane.clockSkew(1), Duration::millis(80));
  EXPECT_EQ(plane.clockSkew(0), Duration::zero());
  EXPECT_EQ(plane.maxClockSkew(), Duration::millis(80));
}

TEST(FaultPlane, RejectsUnknownNodes) {
  sim::Simulator simulator;
  EXPECT_THROW((sim::FaultPlane{simulator, 2,
                                sim::parseFaultScript("crash 5 1"), Rng{1}}),
               InvariantViolation);
}

std::vector<std::pair<double, bool>> churnTrace(std::uint64_t seed) {
  sim::Simulator simulator;
  RecordingListener listener;
  sim::FaultPlane plane{
      simulator, 3, sim::parseFaultScript("churn nodes=0,1,2 up=20 down=4"),
      Rng{seed}.stream("faults")};
  plane.addListener(&listener);
  plane.start();
  simulator.runUntil(at(300.0));
  std::vector<std::pair<double, bool>> trace;
  for (const auto& [node, up] : listener.nodeEvents) {
    trace.emplace_back(node, up);
  }
  return trace;
}

TEST(FaultPlane, ChurnIsSeededAndDeterministic) {
  const auto a = churnTrace(5);
  EXPECT_GE(a.size(), 4u) << "300 s of 20 s-mean churn should cycle";
  EXPECT_EQ(a, churnTrace(5));
  EXPECT_NE(a, churnTrace(6));
}

TEST(FaultPlane, ChurnStopsStartingOutagesAfterUntil) {
  sim::Simulator simulator;
  RecordingListener listener;
  sim::FaultPlane plane{
      simulator, 1,
      sim::parseFaultScript("churn nodes=0 up=5 down=2 until=60"), Rng{3}};
  plane.addListener(&listener);
  plane.start();
  simulator.runUntil(at(400.0));
  EXPECT_TRUE(plane.nodeUp(0)) << "churn must leave the node up after stop";
  double lastDown = 0.0;
  for (std::size_t i = 0; i < listener.nodeEvents.size(); ++i) {
    if (!listener.nodeEvents[i].second) lastDown += 1.0;
  }
  EXPECT_GT(lastDown, 0.0);
}

// --- named RNG streams (satellite: fault rng must not perturb runs) ---------

TEST(RngStream, DoesNotAdvanceTheParentEngine) {
  Rng withStream{42};
  Rng without{42};
  const auto s = withStream.stream("faults");
  (void)s;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(withStream.uniformInt(0, 1 << 30), without.uniformInt(0, 1 << 30));
  }
}

TEST(RngStream, DeterministicAndDecorrelated) {
  Rng a{7};
  Rng b{7};
  auto s1 = a.stream("phys-impairment");
  auto s2 = b.stream("phys-impairment");
  auto other = a.stream("faults");
  auto indexed = a.stream("phys-impairment", 1);
  bool anyDiffOther = false;
  bool anyDiffIndexed = false;
  for (int i = 0; i < 16; ++i) {
    const auto v = s1.uniformInt(0, 1 << 30);
    EXPECT_EQ(v, s2.uniformInt(0, 1 << 30));
    anyDiffOther |= v != other.uniformInt(0, 1 << 30);
    anyDiffIndexed |= v != indexed.uniformInt(0, 1 << 30);
  }
  EXPECT_TRUE(anyDiffOther);
  EXPECT_TRUE(anyDiffIndexed);
}

// --- channel impairments -----------------------------------------------------

TEST(Impairments, UniformPerMatchesConfiguredRate) {
  phys::ImpairmentConfig cfg;
  cfg.per = 0.1;
  phys::ChannelImpairments imp{cfg, Rng{11}};
  int dropped = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    dropped += imp.shouldDrop(0, 1, phys::FrameKind::kData) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / trials, 0.1, 0.01);
  EXPECT_EQ(imp.framesDropped(), dropped);
}

TEST(Impairments, GilbertElliottSteadyStateLoss) {
  phys::ImpairmentConfig cfg;
  cfg.gilbert.pGoodToBad = 0.05;
  cfg.gilbert.pBadToGood = 0.20;
  cfg.gilbert.lossBad = 1.0;
  EXPECT_NEAR(cfg.gilbert.steadyStateLoss(), 0.2, 1e-12);
  phys::ChannelImpairments imp{cfg, Rng{13}};
  int dropped = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    dropped += imp.shouldDrop(0, 1, phys::FrameKind::kData) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / trials, 0.2, 0.02);
}

TEST(Impairments, GilbertElliottLossIsBursty) {
  // Mean bad-state sojourn is 1/pBadToGood = 5 frames, so drops arrive
  // in runs far longer than an iid channel at the same average rate.
  phys::ImpairmentConfig cfg;
  cfg.gilbert.pGoodToBad = 0.05;
  cfg.gilbert.pBadToGood = 0.20;
  cfg.gilbert.lossBad = 1.0;
  phys::ChannelImpairments imp{cfg, Rng{17}};
  int runs = 0;
  int dropped = 0;
  bool inRun = false;
  for (int i = 0; i < 200000; ++i) {
    const bool drop = imp.shouldDrop(0, 1, phys::FrameKind::kData);
    if (drop) {
      ++dropped;
      if (!inRun) ++runs;
    }
    inRun = drop;
  }
  ASSERT_GT(runs, 0);
  const double meanRunLength = static_cast<double>(dropped) / runs;
  EXPECT_GT(meanRunLength, 3.0) << "expected bursty loss, got near-iid";
}

TEST(Impairments, StateIsPerDirectedLink) {
  // Two links evolve independent Gilbert-Elliott states: with a shared
  // state the two observed sequences would be identical.
  phys::ImpairmentConfig cfg;
  cfg.gilbert.pGoodToBad = 0.3;
  cfg.gilbert.pBadToGood = 0.3;
  cfg.gilbert.lossBad = 1.0;
  phys::ChannelImpairments imp{cfg, Rng{19}};
  bool differ = false;
  for (int i = 0; i < 2000; ++i) {
    const bool a = imp.shouldDrop(0, 1, phys::FrameKind::kData);
    const bool b = imp.shouldDrop(2, 3, phys::FrameKind::kData);
    differ |= a != b;
  }
  EXPECT_TRUE(differ);
}

TEST(Impairments, ScopeSelectsFrameKinds) {
  phys::ImpairmentConfig cfg;
  cfg.per = 1.0;
  cfg.scope = phys::ImpairmentConfig::Scope::kControlFrames;
  phys::ChannelImpairments imp{cfg, Rng{23}};
  EXPECT_TRUE(imp.shouldDrop(0, 1, phys::FrameKind::kControl));
  EXPECT_FALSE(imp.shouldDrop(0, 1, phys::FrameKind::kData));
  EXPECT_FALSE(imp.shouldDrop(0, 1, phys::FrameKind::kAck));

  cfg.scope = phys::ImpairmentConfig::Scope::kDataFrames;
  phys::ChannelImpairments dataOnly{cfg, Rng{23}};
  EXPECT_FALSE(dataOnly.shouldDrop(0, 1, phys::FrameKind::kControl));
  EXPECT_TRUE(dataOnly.shouldDrop(0, 1, phys::FrameKind::kData));
}

}  // namespace
}  // namespace maxmin
