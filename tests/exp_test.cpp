#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "exp/sweep.hpp"
#include "scenarios/scenarios.hpp"

namespace maxmin::exp {
namespace {

// Short runs keep the suite fast; determinism does not depend on length.
analysis::RunConfig quickConfig() {
  analysis::RunConfig cfg;
  cfg.protocol = analysis::Protocol::kGmp;
  cfg.duration = Duration::seconds(8.0);
  cfg.warmup = Duration::seconds(4.0);
  cfg.seed = 11;
  return cfg;
}

TEST(SeedGrid, EnumeratesSeedsInOrder) {
  const auto jobs = seedGrid(scenarios::fig3(), quickConfig(), 5);
  ASSERT_EQ(jobs.size(), 5u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].config.seed, 11u + i);
    EXPECT_EQ(jobs[i].label, "fig3/GMP/seed=" + std::to_string(11 + i));
    EXPECT_EQ(jobs[i].scenario.name, "fig3");
  }
}

TEST(SweepRunner, ParallelMatchesSerialExactly) {
  const auto jobs = seedGrid(scenarios::fig3(), quickConfig(), 8);
  const auto serial = SweepRunner{1}.runAll(jobs);
  const auto parallel = SweepRunner{4}.runAll(jobs);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    EXPECT_EQ(serial[i].label, parallel[i].label);
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    // Bit-identical, not approximately equal: each run is a pure function
    // of its config, so thread scheduling must not be observable.
    EXPECT_EQ(serial[i].result.summary.imm, parallel[i].result.summary.imm);
    EXPECT_EQ(serial[i].result.summary.ieq, parallel[i].result.summary.ieq);
    EXPECT_EQ(serial[i].result.summary.effectiveThroughputPps,
              parallel[i].result.summary.effectiveThroughputPps);
    ASSERT_EQ(serial[i].result.flows.size(), parallel[i].result.flows.size());
    for (std::size_t f = 0; f < serial[i].result.flows.size(); ++f) {
      EXPECT_EQ(serial[i].result.flows[f].ratePps,
                parallel[i].result.flows[f].ratePps);
    }
    // Counters are per run: concurrent runs cannot leak into each other.
    EXPECT_TRUE(serial[i].result.metrics == parallel[i].result.metrics)
        << serial[i].label;
  }
}

TEST(SweepRunner, MoreWorkersThanJobsIsFine) {
  const auto jobs = seedGrid(scenarios::fig3(), quickConfig(), 2);
  const auto outcomes = SweepRunner{16}.runAll(jobs);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_TRUE(outcomes[1].ok);
}

TEST(SweepRunner, EmptyJobListYieldsEmptyResults) {
  EXPECT_TRUE(SweepRunner{4}.runAll({}).empty());
}

TEST(SweepRunner, ExceptionInOneRunIsCapturedNotFatal) {
  auto jobs = seedGrid(scenarios::fig3(), quickConfig(), 3);
  // A fault script naming a node the topology doesn't have makes
  // runScenario throw; the sweep must capture that and keep going.
  sim::FaultEvent bad;
  bad.at = TimePoint::origin() + Duration::seconds(1.0);
  bad.kind = sim::FaultEvent::Kind::kNodeDown;
  bad.node = 99;
  jobs[1].config.faults.events.push_back(bad);
  const auto outcomes = SweepRunner{2}.runAll(jobs);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_FALSE(outcomes[1].error.empty());
  EXPECT_TRUE(outcomes[2].ok);
  const auto summary = summarize(outcomes);
  EXPECT_EQ(summary.total, 3);
  EXPECT_EQ(summary.failed, 1);
  EXPECT_EQ(summary.imm.count(), 2);
}

TEST(SweepSummary, AggregatesAcrossRuns) {
  const auto jobs = seedGrid(scenarios::fig3(), quickConfig(), 4);
  const auto outcomes = SweepRunner{2}.runAll(jobs);
  const auto summary = summarize(outcomes);
  EXPECT_EQ(summary.total, 4);
  EXPECT_EQ(summary.failed, 0);
  EXPECT_EQ(summary.imm.count(), 4);
  EXPECT_GT(summary.throughputPps.mean(), 0.0);
  EXPECT_GE(summary.imm.max(), summary.imm.min());
  EXPECT_TRUE(std::isfinite(summary.imm.stddev()));
}

TEST(SweepRunner, NonPositiveJobCountClampsToAtLeastOneWorker) {
  // `--jobs 0` means "hardware concurrency", but hardware_concurrency()
  // is allowed to return 0 on hosts that cannot determine it. The clamp
  // must land on >= 1 real worker, never 0 (which would hang or silently
  // run nothing), for both the 0 path and explicit negative inputs.
  EXPECT_GE(SweepRunner{0}.jobs(), 1);
  EXPECT_GE(SweepRunner{-4}.jobs(), 1);
  EXPECT_EQ(SweepRunner{3}.jobs(), 3);

  const auto jobs = seedGrid(scenarios::fig3(), quickConfig(), 2);
  const auto outcomes = SweepRunner{0}.runAll(jobs);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
  EXPECT_TRUE(outcomes[1].ok) << outcomes[1].error;
}

TEST(SweepJson, WellFormedAndInInputOrder) {
  const auto jobs = seedGrid(scenarios::fig3(), quickConfig(), 2);
  const auto outcomes = SweepRunner{2}.runAll(jobs);
  std::ostringstream os;
  writeJson(os, outcomes, summarize(outcomes));
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  const auto first = json.find("seed=11");
  const auto second = json.find("seed=12");
  EXPECT_NE(first, std::string::npos);
  EXPECT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"i_mm\""), std::string::npos);
  // Each ok row carries its RunMetrics, keyed by forEachMetric.
  const auto metrics = json.find("\"metrics\":{\"events.scheduled\":");
  ASSERT_NE(metrics, std::string::npos);
  EXPECT_LT(metrics, second) << "the first row has its own metrics";
  EXPECT_NE(json.find("\"metrics\":{", second), std::string::npos);
}

}  // namespace
}  // namespace maxmin::exp
