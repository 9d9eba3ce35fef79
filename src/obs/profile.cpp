#include "obs/profile.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <ostream>
#include <string_view>
#include <vector>

namespace maxmin::obs {

void Histogram::record(std::int64_t v) {
  if (v < 0) v = 0;
  const int bucket =
      v == 0 ? 0
             : std::min(kBuckets - 1,
                        64 - std::countl_zero(static_cast<std::uint64_t>(v)));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::int64_t n = count();
  return n > 0 ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
}

std::int64_t Histogram::percentile(double p) const {
  const std::int64_t n = count();
  if (n == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const auto rank = static_cast<std::int64_t>(p * static_cast<double>(n - 1));
  std::int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > rank) {
      // Upper bound of bucket i: 0 for bucket 0, else 2^i - 1.
      return i == 0 ? 0 : (std::int64_t{1} << i) - 1;
    }
  }
  return std::int64_t{1} << (kBuckets - 1);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Profiler& Profiler::global() {
  static Profiler instance;
  return instance;
}

std::atomic<bool>& Profiler::enabledFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}

SiteId Profiler::site(const char* name) {
  // Linear probe over the registered prefix: registration happens once
  // per static site, so O(sites) here is irrelevant. Under the lock the
  // lookup and the append are one step, so two threads registering one
  // name get one id.
  const std::lock_guard<std::mutex> lock{registration_};
  const int n = siteCount_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    if (std::string_view{sites_[i].name} == name) return i;
  }
  if (n == kMaxSites) return kMaxSites - 1;  // overflow bucket
  sites_[n].name = name;
  siteCount_.store(n + 1, std::memory_order_release);  // publish the name
  return n;
}

std::int64_t Profiler::wallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Profiler::reset() {
  const int n = siteCount_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) sites_[i].hist.reset();
}

void Profiler::printTable(std::ostream& os) const {
  const int n = siteCount_.load(std::memory_order_acquire);
  struct Row {
    const char* name;
    std::int64_t calls;
    std::int64_t totalNs;
    double meanNs;
    std::int64_t p50;
    std::int64_t p99;
  };
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    const Site& s = sites_[i];
    if (s.hist.count() == 0) continue;
    rows.push_back(Row{s.name, s.hist.count(), s.hist.sum(), s.hist.mean(),
                       s.hist.percentile(0.5), s.hist.percentile(0.99)});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.totalNs != b.totalNs) return a.totalNs > b.totalNs;
    return std::string_view{a.name} < std::string_view{b.name};
  });
  os << "self-profile (wall time per callback site, summed over every run "
        "in this process)\n";
  os << "site                          calls     total_ms   mean_us   "
        "p50_us    p99_us\n";
  for (const Row& r : rows) {
    os << r.name;
    for (std::size_t pad = std::char_traits<char>::length(r.name); pad < 30;
         ++pad) {
      os << ' ';
    }
    os << r.calls << "  " << static_cast<double>(r.totalNs) * 1e-6 << "  "
       << r.meanNs * 1e-3 << "  " << static_cast<double>(r.p50) * 1e-3 << "  "
       << static_cast<double>(r.p99) * 1e-3 << '\n';
  }
  if (rows.empty()) os << "(no samples; was --profile set before the run?)\n";
}

}  // namespace maxmin::obs
