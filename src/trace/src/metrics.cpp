#include "dcmesh/trace/metrics.hpp"

#include <cstdio>
#include <mutex>
#include <sstream>

namespace dcmesh::trace {
namespace {

using counts = std::map<std::string, std::uint64_t, std::less<>>;

void bump(counts& map, std::string_view key, std::uint64_t delta) {
  const auto it = map.find(key);
  if (it == map.end()) {
    map.emplace(std::string(key), delta);
  } else {
    it->second += delta;
  }
}

std::mutex g_mutex;
std::map<std::string, gemm_site_counters, std::less<>> g_sites;

/// Additive counters keyed by kind: the health and sched families.
class counter_family {
 public:
  void add(std::string_view kind, std::uint64_t delta) {
    std::lock_guard lock(mutex_);
    bump(counts_, kind, delta);
  }
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const {
    std::lock_guard lock(mutex_);
    return {counts_.begin(), counts_.end()};
  }
  std::uint64_t get(std::string_view kind) const {
    std::lock_guard lock(mutex_);
    const auto it = counts_.find(kind);
    return it == counts_.end() ? 0 : it->second;
  }
  void clear() {
    std::lock_guard lock(mutex_);
    counts_.clear();
  }

 private:
  mutable std::mutex mutex_;
  counts counts_;  // guarded by mutex_
};

counter_family g_health;
counter_family g_sched;

}  // namespace

void record_gemm_metrics(std::string_view site, std::string_view routine,
                         std::string_view mode_token, double flops,
                         double bytes, double seconds, bool promoted,
                         std::string_view tune_token) {
  // A site is found in place and its key copied only on its first call.
  std::string untagged;
  if (site.empty()) site = untagged.append("untagged/").append(routine);
  std::lock_guard lock(g_mutex);
  auto it = g_sites.find(site);
  if (it == g_sites.end()) {
    it = g_sites.emplace(std::string(site), gemm_site_counters{}).first;
  }
  gemm_site_counters& counters = it->second;
  ++counters.calls;
  counters.flops += flops;
  counters.bytes += bytes;
  counters.seconds += seconds;
  if (promoted) ++counters.fallback_promotions;
  bump(counters.mode_calls, mode_token, 1);
  if (!tune_token.empty()) bump(counters.tune_calls, tune_token, 1);
}

std::vector<std::pair<std::string, gemm_site_counters>> gemm_metrics() {
  std::lock_guard lock(g_mutex);
  return {g_sites.begin(), g_sites.end()};
}

gemm_site_counters gemm_metrics_for(std::string_view site) {
  std::lock_guard lock(g_mutex);
  const auto it = g_sites.find(site);
  return it == g_sites.end() ? gemm_site_counters{} : it->second;
}

void clear_gemm_metrics() {
  std::lock_guard lock(g_mutex);
  g_sites.clear();
}

std::string gemm_metrics_report() {
  const auto sites = gemm_metrics();
  std::ostringstream os;
  os << "GEMM site counters (" << sites.size() << " sites)\n";
  char buffer[160];
  for (const auto& [site, c] : sites) {
    std::snprintf(buffer, sizeof(buffer),
                  "  %-32s calls=%llu  gflop=%.3f  GB=%.3f  time=%.3fms"
                  "  promotions=%llu  modes=",
                  site.c_str(), static_cast<unsigned long long>(c.calls),
                  c.flops * 1e-9, c.bytes * 1e-9, c.seconds * 1e3,
                  static_cast<unsigned long long>(c.fallback_promotions));
    os << buffer;
    bool first = true;
    for (const auto& [mode, calls] : c.mode_calls) {
      if (!first) os << ',';
      first = false;
      os << mode << ':' << calls;
    }
    if (!c.tune_calls.empty()) {
      os << "  tune=";
      first = true;
      for (const auto& [provenance, calls] : c.tune_calls) {
        if (!first) os << ',';
        first = false;
        os << provenance << ':' << calls;
      }
    }
    os << '\n';
  }
  const auto health = health_counters();
  if (!health.empty()) {
    os << "  health:";
    for (const auto& [kind, count] : health) {
      os << ' ' << kind << '=' << count;
    }
    os << '\n';
  }
  const auto sched = sched_counters();
  if (!sched.empty()) {
    os << "  sched=";
    bool first = true;
    for (const auto& [kind, count] : sched) {
      if (!first) os << ' ';
      first = false;
      os << kind << ':' << count;
    }
    os << '\n';
  }
  return os.str();
}

void record_health_counter(std::string_view kind) { g_health.add(kind, 1); }

std::vector<std::pair<std::string, std::uint64_t>> health_counters() {
  return g_health.snapshot();
}

std::uint64_t health_counter(std::string_view kind) {
  return g_health.get(kind);
}

void clear_health_counters() { g_health.clear(); }

void record_sched_counter(std::string_view kind, std::uint64_t delta) {
  g_sched.add(kind, delta);
}

std::vector<std::pair<std::string, std::uint64_t>> sched_counters() {
  return g_sched.snapshot();
}

std::uint64_t sched_counter(std::string_view kind) { return g_sched.get(kind); }

void clear_sched_counters() { g_sched.clear(); }

}  // namespace dcmesh::trace
