// Observability plane: per-run layer counters (RunMetrics), trace-sink
// determinism (fixed seed => byte-identical JSONL), the profiler, and the
// trace -> replay round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <locale>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
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
