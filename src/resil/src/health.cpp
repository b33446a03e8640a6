#include "dcmesh/resil/health.hpp"

#include <atomic>
#include <cstdint>
#include <string>

#include "dcmesh/common/env.hpp"
#include "dcmesh/common/knobs.hpp"
#include "dcmesh/trace/metrics.hpp"
#include "dcmesh/trace/tracer.hpp"

namespace dcmesh::resil {
namespace {

// In-process override: -1 = none, else a health_level.
std::atomic<int> g_forced{-1};

// Sample-cadence call counter (process-wide, advanced by
// health_sample_due).
std::atomic<std::uint64_t> g_sample_counter{0};

/// Parse one DCMESH_HEALTH token; nullopt when unrecognised.
std::optional<health_level> parse_level(std::string_view token) {
  const std::string upper = to_upper(trim(token));
  if (upper == "OFF" || upper == "0") return health_level::off;
  if (upper == "SAMPLE" || upper == "1") return health_level::sample;
  if (upper == "FULL" || upper == "2") return health_level::full;
  return std::nullopt;
}

double limit(knob k, double fallback) {
  return knob_value(k, parse_positive_real).value_or(fallback);
}

}  // namespace

std::string_view name(health_level level) noexcept {
  switch (level) {
    case health_level::off: return "off";
    case health_level::sample: return "sample";
    case health_level::full: return "full";
  }
  return "off";
}

health_level active_health_level() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<health_level>(forced);
  return knob_value(knob::health, parse_level).value_or(health_level::off);
}

void set_health_level(std::optional<health_level> level) {
  g_forced.store(level ? static_cast<int>(*level) : -1,
                 std::memory_order_relaxed);
}

invariant_limits active_limits() {
  invariant_limits limits;
  limits.norm_drift_max = limit(knob::health_norm_drift, limits.norm_drift_max);
  limits.value_max = limit(knob::health_value_max, limits.value_max);
  limits.ekin_jump_rel = limit(knob::health_ekin_jump, limits.ekin_jump_rel);
  return limits;
}

std::uint64_t health_sample_period() {
  return static_cast<std::uint64_t>(
      knob_value(knob::health_sample, parse_positive_integer).value_or(1));
}

bool health_sample_due() {
  const std::uint64_t period = health_sample_period();
  const std::uint64_t tick =
      g_sample_counter.fetch_add(1, std::memory_order_relaxed);
  return period <= 1 || tick % period == 0;
}

void reset_health_sampling() {
  g_sample_counter.store(0, std::memory_order_relaxed);
}

void record_health_event(std::string_view kind, std::string_view site,
                         std::string_view detail) {
  trace::record_health_counter(kind);
  auto& collector = trace::tracer::instance();
  if (collector.enabled()) {
    std::string args = "\"site\":\"";
    trace::append_json_escaped(args, site);
    args += "\",\"detail\":\"";
    trace::append_json_escaped(args, detail);
    args += '"';
    collector.emit(kind, "health", collector.now_ns(), 0, std::move(args));
  }
  if (trace::verbose_enabled()) {
    trace::write_verbose_line("DCMESH_RESIL " + std::string(kind) +
                              " site=" + std::string(site) + ' ' +
                              std::string(detail));
  }
}

}  // namespace dcmesh::resil
