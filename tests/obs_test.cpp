// Observability plane: per-run layer counters (RunMetrics), trace-sink
// determinism (fixed seed => byte-identical JSONL), the profiler, and the
// trace -> replay round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <locale>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/trace_replay.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "scenarios/scenarios.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace maxmin {
namespace {

// The profiler is process-global; every test leaves it disabled and
// zeroed so suites compose in any order.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { cleanup(); }
  void TearDown() override { cleanup(); }
  static void cleanup() {
    obs::Profiler::setEnabled(false);
    obs::Profiler::global().reset();
  }
};

// --- histogram -------------------------------------------------------------

TEST_F(ObsTest, HistogramBucketsByPowerOfTwo) {
  obs::Histogram h;
  h.record(0);
  h.record(1);
  h.record(1000);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 1001);
  EXPECT_NEAR(h.mean(), 1001.0 / 3.0, 1e-9);
  // p100 lands in 1000's bucket [512, 1024): inclusive upper bound 1023.
  EXPECT_EQ(h.percentile(1.0), 1023);
  EXPECT_EQ(h.percentile(0.0), 0);
}

// --- per-run metrics -------------------------------------------------------

TEST_F(ObsTest, RunMetricsCountEveryLayerInTheDefaultBuild) {
  analysis::RunConfig cfg;
  cfg.duration = Duration::seconds(20.0);
  cfg.warmup = Duration::seconds(10.0);
  cfg.seed = 5;
  const analysis::RunMetrics m =
      analysis::runScenario(scenarios::fig3(), cfg).metrics;
  EXPECT_GT(m.eventsScheduled, 0u);
  EXPECT_GT(m.eventsExecuted, 0u);
  EXPECT_GT(m.mac.backoffDraws, 0u);
  EXPECT_GT(m.mac.dataSent, 0u);
  EXPECT_GT(m.gmpPeriods, 0);
  EXPECT_GT(m.decisions.sourceBufferViolations +
                m.decisions.bandwidthViolations,
            0);
  EXPECT_EQ(m.crashDrops, 0) << "fault-free run";
  EXPECT_EQ(m.deadNeighborDrops, 0) << "fault-free run";
  // Per run, not per process: the same config counts the same again.
  EXPECT_TRUE(m == analysis::runScenario(scenarios::fig3(), cfg).metrics);
}

TEST_F(ObsTest, ForEachMetricNamesAreUnique) {
  std::vector<std::string> names;
  analysis::forEachMetric(analysis::RunMetrics{},
                          [&names](const char* name, std::int64_t v) {
                            names.emplace_back(name);
                            EXPECT_EQ(v, 0) << name;
                          });
  EXPECT_FALSE(names.empty());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

// --- JSON writer ------------------------------------------------------------

TEST_F(ObsTest, JsonWriterEmitsDeterministicRecords) {
  const auto build = [] {
    obs::JsonWriter w;
    w.beginObject();
    w.key("name").value("a\"b\\c");
    w.key("pi").value(3.141592653589793);
    w.key("n").value(std::int64_t{-7});
    w.key("ok").value(true);
    w.key("list").beginArray().value(1).value(2).endArray();
    w.endObject();
    return w.str();
  };
  const std::string a = build();
  EXPECT_EQ(a, build());
  EXPECT_EQ(a,
            "{\"name\":\"a\\\"b\\\\c\",\"pi\":3.1415926535897931,"
            "\"n\":-7,\"ok\":true,\"list\":[1,2]}");
}

// --- trace sink -------------------------------------------------------------

TEST_F(ObsTest, TraceLevelParses) {
  EXPECT_EQ(obs::parseTraceLevel("period"), obs::TraceLevel::kPeriod);
  EXPECT_EQ(obs::parseTraceLevel("event"), obs::TraceLevel::kEvent);
  EXPECT_FALSE(obs::parseTraceLevel("verbose").has_value());
}

TEST_F(ObsTest, TraceSinkAppendsLines) {
  std::ostringstream os;
  obs::TraceSink sink{os, obs::TraceLevel::kPeriod};
  EXPECT_FALSE(sink.wantsEvents());
  sink.writeRecord("{\"record\":\"period\"}");
  sink.writeRecord("{\"record\":\"period\"}");
  EXPECT_EQ(sink.recordsWritten(), 2);
  EXPECT_EQ(os.str(), "{\"record\":\"period\"}\n{\"record\":\"period\"}\n");
}

namespace {

std::string traceFixedSeedRun(obs::TraceLevel level) {
  std::ostringstream os;
  obs::TraceSink sink{os, level};
  analysis::RunConfig cfg;
  cfg.duration = Duration::seconds(30.0);
  cfg.warmup = Duration::seconds(15.0);
  cfg.seed = 11;
  cfg.trace = &sink;
  (void)analysis::runScenario(scenarios::fig3(), cfg);
  return os.str();
}

}  // namespace

TEST_F(ObsTest, FixedSeedTraceIsByteIdentical) {
  const std::string first = traceFixedSeedRun(obs::TraceLevel::kEvent);
  const std::string second = traceFixedSeedRun(obs::TraceLevel::kEvent);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "fixed-seed traces must be byte-identical";
}

TEST_F(ObsTest, TraceReplayRecomputesFairnessTrajectory) {
  const std::string trace = traceFixedSeedRun(obs::TraceLevel::kEvent);
  std::istringstream in{trace};
  const auto replay = analysis::traceReplay(in);
  // 30 s at the default 4 s period: 7 boundaries.
  ASSERT_EQ(replay.periods.size(), 7u);
  const auto imm = replay.immTrajectory();
  const auto ieq = replay.ieqTrajectory();
  ASSERT_EQ(imm.size(), 7u);
  for (std::size_t i = 0; i < imm.size(); ++i) {
    EXPECT_GE(imm[i], 0.0);
    EXPECT_LE(imm[i], 1.0 + 1e-12);
    EXPECT_GT(ieq[i], 0.0);
    EXPECT_EQ(replay.periods[i].period, static_cast<int>(i));
    EXPECT_EQ(replay.periods[i].hops.size(), 3u) << "fig3 has 3 flows";
  }
}

TEST_F(ObsTest, JsonDoublesRoundTripThroughWriterAndReplay) {
  // Satellite regression for locale-independent number text: doubles that
  // exercise shortest-vs-17-digit formatting, subnormals, and huge
  // magnitudes must survive JsonWriter -> traceReplay bit-exactly, and the
  // emitted bytes must not change when the global locale uses a ','
  // decimal separator (to_chars/from_chars ignore locale by definition).
  const std::vector<double> rates = {0.1, 1.0 / 3.0, 12.5,
                                     6.02214076e23, 5e-324};
  const auto cycle = [&rates] {
    obs::JsonWriter w;
    w.beginObject();
    w.key("record").value("period");
    w.key("period").value(0);
    w.key("timeUs").value(std::int64_t{4000000});
    w.key("flows").beginArray();
    for (std::size_t i = 0; i < rates.size(); ++i) {
      w.beginObject();
      w.key("id").value(static_cast<int>(i));
      w.key("hops").value(1);
      w.key("ratePps").value(rates[i]);
      w.endObject();
    }
    w.endArray().endObject();
    const std::string text = w.str() + "\n";
    std::istringstream in{text};
    const auto replay = analysis::traceReplay(in);
    return std::pair{text, replay};
  };

  const auto [text, replay] = cycle();
  ASSERT_EQ(replay.periods.size(), 1u);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto it = replay.periods[0].ratesPps.find(static_cast<int>(i));
    ASSERT_NE(it, replay.periods[0].ratesPps.end());
    EXPECT_EQ(it->second, rates[i]) << "rate " << i << " not bit-exact";
  }

  // Re-run the whole cycle under a comma-decimal locale when the host has
  // one installed; skip silently otherwise (CI images vary).
  const std::locale saved;
  bool haveLocale = false;
  try {
    std::locale::global(std::locale{"de_DE.UTF-8"});
    haveLocale = true;
  } catch (const std::runtime_error&) {
  }
  if (haveLocale) {
    const auto [localeText, localeReplay] = cycle();
    std::locale::global(saved);
    EXPECT_EQ(localeText, text) << "writer bytes depend on the locale";
    ASSERT_EQ(localeReplay.periods.size(), 1u);
    for (std::size_t i = 0; i < rates.size(); ++i) {
      EXPECT_EQ(localeReplay.periods[0].ratesPps.at(static_cast<int>(i)),
                rates[i]);
    }
  }
}

TEST_F(ObsTest, TraceReplayRejectsMalformedLines) {
  std::istringstream in{"{\"record\":\"period\",\"broken\n"};
  EXPECT_THROW((void)analysis::traceReplay(in), InvariantViolation);
  std::istringstream noRecord{"{\"period\":1}\n"};
  EXPECT_THROW((void)analysis::traceReplay(noRecord), InvariantViolation);
}

TEST_F(ObsTest, TraceReplaySkipsEventRecords) {
  std::istringstream in{
      "{\"record\":\"command\",\"period\":0,\"flow\":1,"
      "\"kind\":\"set_limit\",\"limitPps\":12.5}\n"
      "{\"record\":\"period\",\"period\":0,\"timeUs\":4000000,\"flows\":"
      "[{\"id\":0,\"hops\":3,\"ratePps\":10.0},"
      "{\"id\":1,\"hops\":1,\"ratePps\":20.0}]}\n"};
  const auto replay = analysis::traceReplay(in);
  ASSERT_EQ(replay.periods.size(), 1u);
  EXPECT_DOUBLE_EQ(replay.periods[0].summary.imm, 0.5);
  EXPECT_DOUBLE_EQ(replay.periods[0].summary.effectiveThroughputPps, 50.0);
}

TEST_F(ObsTest, TraceReplayRejectsOutOfRangeFields) {
  const auto replayLine = [](const std::string& flow,
                             const std::string& head =
                                 "\"period\":0,\"timeUs\":4000000") {
    std::istringstream in{"\n{\"record\":\"period\"," + head +
                          ",\"flows\":[" + flow + "]}\n"};
    return analysis::traceReplay(in);
  };
  const std::string ok = "{\"id\":0,\"hops\":2,\"ratePps\":1.5}";
  EXPECT_EQ(replayLine(ok).periods.size(), 1u);
  for (const std::string head :
       {"\"period\":1e300,\"timeUs\":0", "\"period\":-1,\"timeUs\":0",
        "\"period\":0.5,\"timeUs\":0", "\"period\":0,\"timeUs\":1e300",
        "\"period\":0,\"timeUs\":-4", "\"period\":0"}) {
    SCOPED_TRACE(head);
    try {
      (void)replayLine(ok, head);
      ADD_FAILURE() << "accepted";
    } catch (const InvariantViolation& e) {
      EXPECT_NE(std::string{e.what()}.find("trace line 2"),
                std::string::npos)
          << e.what();
    }
  }
  for (const std::string flow :
       {"{\"id\":1e300,\"hops\":2,\"ratePps\":1}",
        "{\"id\":-1,\"hops\":2,\"ratePps\":1}",
        "{\"id\":0,\"hops\":-5,\"ratePps\":1}",
        "{\"id\":0,\"hops\":0,\"ratePps\":1}",
        "{\"id\":0,\"hops\":2.5,\"ratePps\":1}",
        "{\"id\":0,\"hops\":2,\"ratePps\":-1}",
        "{\"id\":0,\"hops\":2,\"ratePps\":1e999}",
        "{\"id\":0,\"hops\":2}", "3"}) {
    SCOPED_TRACE(flow);
    EXPECT_THROW((void)replayLine(flow), InvariantViolation);
  }
}

TEST_F(ObsTest, TraceReplayRejectsDeepNestingWithoutRecursingAway) {
  std::istringstream in{std::string(2'000'000, '[') + "\n"};
  try {
    (void)analysis::traceReplay(in);
    ADD_FAILURE() << "accepted";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string{e.what()}.find("trace line 1"), std::string::npos)
        << e.what();
  }
}

namespace {

/// Mutates a fig4 GMP event-level trace: byte flips, token splices and
/// swaps of numbers for values a parser gets wrong.
class TraceFuzzer {
 public:
  explicit TraceFuzzer(std::uint64_t seed) : rng_{seed} {
    std::ostringstream os;
    obs::TraceSink sink{os, obs::TraceLevel::kEvent};
    analysis::RunConfig cfg;
    cfg.duration = Duration::seconds(24.0);
    cfg.warmup = Duration::seconds(8.0);
    cfg.seed = 3;
    cfg.trace = &sink;
    (void)analysis::runScenario(scenarios::fig4(), cfg);
    std::istringstream lines{os.str()};
    for (std::string line; std::getline(lines, line);) lines_.push_back(line);
  }

  [[nodiscard]] std::size_t lineCount() const { return lines_.size(); }

  /// A window of up to four consecutive trace lines with one to three
  /// mutations applied.
  std::string next() {
    const std::size_t first = index(lines_.size());
    std::string text;
    for (std::size_t i = first; i < std::min(first + 4, lines_.size()); ++i) {
      text += lines_[i] + "\n";
    }
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
  // Sized explicitly: the NUL byte is one of the candidates.
  static constexpr char kByteList[] =
      "{}[],:\"\\0123456789.-+eEtrufalsn \t\n\0\xff";
  static constexpr std::string_view kBytes{kByteList, sizeof kByteList - 1};
  static constexpr std::array<std::string_view, 12> kNumbers = {
      "nan", "1e300", "-0", "3x", "", "-5", "1e400", "inf", "0.5",
      "2147483648", "9007199254740993", "-1e-400"};

  std::size_t index(std::size_t size) {
    return static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(size) - 1));
  }

  void flipByte(std::string& text) {
    text[index(text.size())] = kBytes[index(kBytes.size())];
  }

  /// Byte ranges of the scalar tokens (numbers, literals, key and string
  /// contents) and of the single structural bytes between them.
  static std::vector<std::pair<std::size_t, std::size_t>> tokens(
      const std::string& text) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    auto scalar = [&text](std::size_t k) {
      return std::isalnum(static_cast<unsigned char>(text[k])) != 0 ||
             text[k] == '.' || text[k] == '-' || text[k] == '+' ||
             text[k] == '_';
    };
    for (std::size_t i = 0; i < text.size();) {
      const std::size_t start = i;
      while (i < text.size() && scalar(i)) ++i;
      if (i == start) ++i;
      out.emplace_back(start, i - start);
    }
    return out;
  }

  /// Replace, duplicate or drop a token, using a token of another line.
  void spliceToken(std::string& text) {
    const auto mine = tokens(text);
    const std::string& donor = lines_[index(lines_.size())];
    const auto theirs = tokens(donor);
    if (mine.empty() || theirs.empty()) return;
    const auto [at, len] = mine[index(mine.size())];
    const auto [from, flen] = theirs[index(theirs.size())];
    const std::string piece = donor.substr(from, flen);
    switch (rng_.uniformInt(0, 2)) {
      case 0: text.replace(at, len, piece); break;
      case 1: text.insert(at, piece); break;
      default: text.erase(at, len); break;
    }
  }

  /// Replace a number token by one of the values parsers get wrong.
  void swapNumber(std::string& text) {
    std::vector<std::pair<std::size_t, std::size_t>> numbers;
    for (const auto& [at, len] : tokens(text)) {
      const char c = text[at];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-') {
        numbers.emplace_back(at, len);
      }
    }
    if (numbers.empty()) return;
    const auto [at, len] = numbers[index(numbers.size())];
    text.replace(at, len, kNumbers[index(kNumbers.size())]);
  }

  Rng rng_;
  std::vector<std::string> lines_;
};

}  // namespace

TEST_F(ObsTest, TraceReplayFuzzedInputsParseOrFailWithALineNumber) {
  TraceFuzzer fuzz{20261018};
  ASSERT_GT(fuzz.lineCount(), 20u);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string input = fuzz.next();
    SCOPED_TRACE(::testing::Message() << "input #" << i << ": '" << input
                                      << "'");
    std::istringstream in{input};
    try {
      (void)analysis::traceReplay(in);
      ++parsed;
    } catch (const InvariantViolation& e) {
      EXPECT_NE(std::string{e.what()}.find("trace line "), std::string::npos)
          << e.what();
      ++rejected;
    }
  }
  // The corpus keeps both paths busy.
  EXPECT_GT(parsed, 50);
  EXPECT_GT(rejected, 50);
}

// --- profiler ---------------------------------------------------------------

TEST_F(ObsTest, ProfilerSitesAreIdempotent) {
  auto& p = obs::Profiler::global();
  const obs::SiteId a = p.site("obs_test.site_a");
  EXPECT_EQ(p.site("obs_test.site_a"), a);
  EXPECT_NE(p.site("obs_test.site_b"), a);
}

TEST_F(ObsTest, ConcurrentSiteRegistrationGivesOneIdPerName) {
  // Threads race to register overlapping names, each walking the list
  // from its own offset: every name must get exactly one id, and every
  // thread must see that id.
  static constexpr std::array<const char*, 8> kNames = {
      "obs_test.race_0", "obs_test.race_1", "obs_test.race_2",
      "obs_test.race_3", "obs_test.race_4", "obs_test.race_5",
      "obs_test.race_6", "obs_test.race_7"};
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<obs::SiteId>> ids(
      kThreads, std::vector<obs::SiteId>(kNames.size()));
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids, &go] {
      while (!go.load()) {
      }
      for (std::size_t k = 0; k < kNames.size(); ++k) {
        const std::size_t i = (k + 3 * t) % kNames.size();
        ids[t][i] = obs::Profiler::global().site(kNames[i]);
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t], ids[0]);
  EXPECT_EQ(std::set<obs::SiteId>(ids[0].begin(), ids[0].end()).size(),
            kNames.size());
  // Equal text at another address is the same site.
  static const std::string copy{kNames[5]};
  EXPECT_EQ(obs::Profiler::global().site(copy.c_str()), ids[0][5]);
}

TEST_F(ObsTest, ScopedProfileRecordsOnlyWhenEnabled) {
  auto& p = obs::Profiler::global();
  const obs::SiteId id = p.site("obs_test.scoped");
  { const obs::ScopedProfile off{id}; }
  obs::Profiler::setEnabled(true);
  { const obs::ScopedProfile on{id}; }
  std::ostringstream os;
  p.printTable(os);
  EXPECT_NE(os.str().find("obs_test.scoped"), std::string::npos);
  // Exactly the enabled pass recorded.
  EXPECT_NE(os.str().find(" 1 "), std::string::npos) << os.str();
}

TEST_F(ObsTest, WallNanosIsMonotonic) {
  const std::int64_t a = obs::Profiler::wallNanos();
  const std::int64_t b = obs::Profiler::wallNanos();
  EXPECT_GE(b, a);
}

TEST_F(ObsTest, ProfiledRunMatchesUnprofiledResults) {
  analysis::RunConfig cfg;
  cfg.duration = Duration::seconds(20.0);
  cfg.warmup = Duration::seconds(10.0);
  cfg.seed = 3;
  const auto plain = analysis::runScenario(scenarios::fig3(), cfg);
  obs::Profiler::setEnabled(true);
  const auto profiled = analysis::runScenario(scenarios::fig3(), cfg);
  ASSERT_EQ(plain.flows.size(), profiled.flows.size());
  for (std::size_t i = 0; i < plain.flows.size(); ++i) {
    EXPECT_EQ(plain.flows[i].ratePps, profiled.flows[i].ratePps)
        << "observability must not perturb simulation results";
  }
}

}  // namespace
}  // namespace maxmin
