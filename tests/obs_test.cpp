// Observability plane: per-run layer counters (RunMetrics), trace-sink
// determinism (fixed seed => byte-identical JSONL), JSON number text, and
// the profiler.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <locale>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "scenarios/scenarios.hpp"

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

// Doubles that exercise shortest-vs-17-digit formatting, subnormals and
// huge magnitudes, written as a trace period record.
const std::vector<double> kRoundTripRates = {0.1, 1.0 / 3.0, 12.5,
                                             6.02214076e23, 5e-324};

std::string writeRateRecord() {
  obs::JsonWriter w;
  w.beginObject();
  w.key("record").value("period");
  w.key("period").value(0);
  w.key("timeUs").value(std::int64_t{4000000});
  w.key("flows").beginArray();
  for (std::size_t i = 0; i < kRoundTripRates.size(); ++i) {
    w.beginObject();
    w.key("id").value(static_cast<int>(i));
    w.key("hops").value(1);
    w.key("ratePps").value(kRoundTripRates[i]);
    w.endObject();
  }
  w.endArray().endObject();
  return w.str();
}

/// Every "ratePps" value in `text`, parsed with from_chars.
std::vector<double> readRates(const std::string& text) {
  static constexpr std::string_view kKey = "\"ratePps\":";
  std::vector<double> out;
  for (auto at = text.find(kKey); at != std::string::npos;
       at = text.find(kKey, at)) {
    at += kKey.size();
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data() + at, text.data() + text.size(), v);
    EXPECT_EQ(ec, std::errc{}) << text.substr(at);
    EXPECT_EQ(*ptr, '}') << text.substr(at);
    out.push_back(v);
  }
  return out;
}

/// Sets the global C++ locale for its lifetime, then restores the old one.
class GlobalLocale {
 public:
  explicit GlobalLocale(const std::locale& loc)
      : saved_{std::locale::global(loc)} {}
  ~GlobalLocale() { std::locale::global(saved_); }
  GlobalLocale(const GlobalLocale&) = delete;
  GlobalLocale& operator=(const GlobalLocale&) = delete;

 private:
  std::locale saved_;
};

/// ',' as the decimal point and '.' grouping thousands, as in de_DE.
struct CommaDecimal final : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST_F(ObsTest, JsonDoublesRoundTripThroughWriterAndReplay) {
  // Locale-independent number text: the doubles read back from
  // JsonWriter's text bit-exactly, and the bytes do not change under a
  // global C++ locale with a ',' decimal point (to_chars/from_chars
  // ignore locale by definition; a stream-based writer would not). The
  // facet is built in, so this runs on every host.
  const std::string text = writeRateRecord();
  const std::vector<double> read = readRates(text);
  ASSERT_EQ(read.size(), kRoundTripRates.size());
  for (std::size_t i = 0; i < kRoundTripRates.size(); ++i) {
    EXPECT_EQ(read[i], kRoundTripRates[i]) << "rate " << i
                                           << " not bit-exact";
  }

  std::string commaText;
  {
    const GlobalLocale comma{
        std::locale{std::locale::classic(), new CommaDecimal}};
    commaText = writeRateRecord();
  }
  EXPECT_EQ(commaText, text) << "writer bytes depend on the C++ locale";
}

TEST_F(ObsTest, JsonBytesIgnoreANamedCommaLocale) {
  // A named locale also switches the C locale (printf-family formatting),
  // which the built-in facet above does not reach. Needs de_DE.UTF-8.
  std::locale german;
  try {
    german = std::locale{"de_DE.UTF-8"};
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "locale de_DE.UTF-8 is not installed";
  }
  const std::string text = writeRateRecord();
  std::string localeText;
  {
    const GlobalLocale named{german};
    localeText = writeRateRecord();
  }
  EXPECT_EQ(localeText, text) << "writer bytes depend on the locale";
  EXPECT_EQ(readRates(localeText), kRoundTripRates);
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
