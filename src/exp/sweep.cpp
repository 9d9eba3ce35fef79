#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <ostream>
#include <string>
#include <thread>
#include <utility>

#include "obs/profile.hpp"
#include "util/check.hpp"
#include "util/num_text.hpp"

namespace maxmin::exp {
namespace {

SweepOutcome runOne(const SweepJob& job) {
  SweepOutcome out;
  out.label = job.label;
  out.seed = job.config.seed;
  // obs::Profiler::wallNanos is the project's one sanctioned wall-clock
  // read (see tools/lint rule chrono-outside-obs).
  const std::int64_t start = obs::Profiler::wallNanos();
  try {
    out.result = analysis::runScenario(job.scenario, job.config);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  out.wallSeconds =
      static_cast<double>(obs::Profiler::wallNanos() - start) * 1e-9;
  return out;
}

}  // namespace

SweepRunner::SweepRunner(int jobs) : jobs_{jobs} {
  if (jobs_ <= 0) {
    jobs_ = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs_ <= 0) jobs_ = 1;
  }
}

std::vector<SweepOutcome> SweepRunner::runAll(
    const std::vector<SweepJob>& jobs) const {
  std::vector<SweepOutcome> outcomes(jobs.size());
  if (jobs.empty()) return outcomes;

  const int workers =
      std::min(jobs_, static_cast<int>(jobs.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) outcomes[i] = runOne(jobs[i]);
    return outcomes;
  }

  // Work-stealing by shared counter: each worker claims the next
  // unclaimed job and writes its outcome by index. Job order in the
  // result is the input order; which thread ran a job is invisible.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      outcomes[i] = runOne(jobs[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return outcomes;
}

std::vector<SweepJob> seedGrid(const scenarios::Scenario& scenario,
                               const analysis::RunConfig& base, int count) {
  MAXMIN_CHECK(count >= 0);
  std::vector<SweepJob> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    SweepJob job;
    job.scenario = scenario;
    job.config = base;
    job.config.seed = base.seed + static_cast<std::uint64_t>(i);
    job.label = scenario.name + "/" +
                analysis::protocolName(base.protocol) + "/seed=" +
                std::to_string(job.config.seed);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

SweepSummary summarize(const std::vector<SweepOutcome>& outcomes) {
  SweepSummary s;
  s.total = static_cast<int>(outcomes.size());
  for (const SweepOutcome& o : outcomes) {
    if (!o.ok) {
      ++s.failed;
      continue;
    }
    s.imm.add(o.result.summary.imm);
    s.ieq.add(o.result.summary.ieq);
    s.throughputPps.add(o.result.summary.effectiveThroughputPps);
    s.queueDrops.add(static_cast<double>(o.result.queueDrops));
    s.wallSeconds.add(o.wallSeconds);
  }
  return s;
}

namespace {

// The report is assembled into a std::string with locale-independent
// appends (util's to_chars wrappers for doubles, std::to_string for ints)
// instead of streaming values through operator<<: a caller-imbued or
// globally-set locale with ',' decimal separator / digit grouping must not
// change the bytes. Doubles keep the 6-significant-digit format the old
// stream-based writer produced, so existing output is byte-identical.
void jsonEscape(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u001f";  // control chars never appear in our labels
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void jsonNum(std::string& out, double v) { appendDouble(out, v, 6); }

void jsonStats(std::string& out, const char* name, const RunningStats& st) {
  out += '"';
  out += name;
  out += "\":{\"mean\":";
  jsonNum(out, st.mean());
  out += ",\"stddev\":";
  jsonNum(out, st.stddev());
  out += ",\"min\":";
  jsonNum(out, st.min());
  out += ",\"max\":";
  jsonNum(out, st.max());
  out += ",\"n\":";
  out += std::to_string(st.count());
  out += '}';
}

}  // namespace

void writeJson(std::ostream& os, const std::vector<SweepOutcome>& outcomes,
               const SweepSummary& summary) {
  std::string out;
  out += "{\"runs\":[";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const SweepOutcome& o = outcomes[i];
    if (i > 0) out += ',';
    out += "{\"label\":";
    jsonEscape(out, o.label);
    out += ",\"seed\":";
    out += std::to_string(o.seed);
    out += ",\"ok\":";
    out += o.ok ? "true" : "false";
    if (o.ok) {
      out += ",\"i_mm\":";
      jsonNum(out, o.result.summary.imm);
      out += ",\"i_eq\":";
      jsonNum(out, o.result.summary.ieq);
      out += ",\"u_pkt_hops_per_s\":";
      jsonNum(out, o.result.summary.effectiveThroughputPps);
      out += ",\"total_rate_pps\":";
      jsonNum(out, o.result.summary.totalRatePps);
      out += ",\"queue_drops\":";
      out += std::to_string(o.result.queueDrops);
      out += ",\"flows\":[";
      for (std::size_t f = 0; f < o.result.flows.size(); ++f) {
        const auto& flow = o.result.flows[f];
        if (f > 0) out += ',';
        out += "{\"name\":";
        jsonEscape(out, flow.name);
        out += ",\"rate_pps\":";
        jsonNum(out, flow.ratePps);
        out += ",\"hops\":";
        out += std::to_string(flow.hops);
        out += '}';
      }
      out += "],\"metrics\":{";
      bool first = true;
      analysis::forEachMetric(
          o.result.metrics, [&out, &first](const char* name, std::int64_t v) {
            if (!first) out += ',';
            first = false;
            out += '"';
            out += name;
            out += "\":";
            out += std::to_string(v);
          });
      out += '}';
    } else {
      out += ",\"error\":";
      jsonEscape(out, o.error);
    }
    out += ",\"wall_seconds\":";
    jsonNum(out, o.wallSeconds);
    out += '}';
  }
  out += "],\"summary\":{\"total\":";
  out += std::to_string(summary.total);
  out += ",\"failed\":";
  out += std::to_string(summary.failed);
  out += ',';
  jsonStats(out, "i_mm", summary.imm);
  out += ',';
  jsonStats(out, "i_eq", summary.ieq);
  out += ',';
  jsonStats(out, "u_pkt_hops_per_s", summary.throughputPps);
  out += ',';
  jsonStats(out, "queue_drops", summary.queueDrops);
  out += ',';
  jsonStats(out, "wall_seconds", summary.wallSeconds);
  out += "}}\n";
  os << out;
}

}  // namespace maxmin::exp
