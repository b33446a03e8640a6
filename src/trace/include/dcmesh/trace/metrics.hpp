#pragma once
// metrics.hpp — per-call-site GEMM counter registry.
//
// The verbose layer (src/blas/src/verbose.cpp) forwards every recorded
// level-3 call here, so after any run the registry answers "which tagged
// site ran how many GEMMs, at which resolved compute modes, moving how
// many flops/bytes, promoted by the accuracy guard how often" — the
// per-call interception telemetry the automatic-offloading literature uses
// to decide where reduced precision pays off.
//
// Deliberately blas-agnostic (plain strings and scalars) so dcmesh_trace
// stays dependency-free and dcmesh_blas can link it without a cycle.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dcmesh::trace {

/// Aggregated counters for one call site (or one untagged routine).
struct gemm_site_counters {
  std::uint64_t calls = 0;
  double flops = 0.0;    ///< Nominal standard-arithmetic flops.
  double bytes = 0.0;    ///< Operand + result traffic (A + B + 2C).
  double seconds = 0.0;  ///< Host wall time across all calls.
  std::uint64_t fallback_promotions = 0;  ///< Guard re-ran at higher mode.
  /// Calls per resolved compute-mode token ("STANDARD", "BF16", ...).
  std::map<std::string, std::uint64_t, std::less<>> mode_calls;
  /// Auto-resolved calls per decision provenance ("modeled" for a cold
  /// key, "cached", "defaulted"); empty when the site never ran under
  /// `auto`.
  std::map<std::string, std::uint64_t, std::less<>> tune_calls;
};

/// Record one GEMM call for `site` (falls back to "untagged/<routine>"
/// when the site tag is empty).  `tune_token` names the auto-mode decision
/// provenance; empty for calls that were not auto-resolved.  Thread-safe.
void record_gemm_metrics(std::string_view site, std::string_view routine,
                         std::string_view mode_token, double flops,
                         double bytes, double seconds, bool promoted,
                         std::string_view tune_token = {});

/// Snapshot of all per-site counters, sorted by site tag.
[[nodiscard]] std::vector<std::pair<std::string, gemm_site_counters>>
gemm_metrics();

/// Counters for one site; zeroed counters when the site never ran.
[[nodiscard]] gemm_site_counters gemm_metrics_for(std::string_view site);

/// Reset the registry.
void clear_gemm_metrics();

/// Human-readable table of the registry (one line per site: calls, flops,
/// bytes, time, modes, promotions), followed by the health-event counters
/// when any were recorded.
[[nodiscard]] std::string gemm_metrics_report();

// --- structured health events (numerical resilience subsystem) ---
//
// The resilience layer (src/resil) funnels every fault injection,
// sentinel detection, recovery, rollback, and promotion through here as a
// named counter, so a campaign's health history is queryable next to the
// per-site GEMM counters it relates to.

/// Bump the counter for one health-event kind ("inject", "detect",
/// "recover", "unrecovered", "step_invariant", "rollback", "promote").
/// Thread-safe.
void record_health_counter(std::string_view kind);

/// Snapshot of all health counters, sorted by kind.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
health_counters();

/// Counter for one kind; 0 when never recorded.
[[nodiscard]] std::uint64_t health_counter(std::string_view kind);

/// Reset the health counters.
void clear_health_counters();

// --- scheduler counters (task-graph step executor) ---
//
// The sched layer (src/sched) records its aggregate activity here —
// graphs run, nodes executed/skipped, pool steals, queue-wait time — so
// a run's `sched=` line sits next to the per-site GEMM counters in the
// same report.  Counters are additive deltas keyed by kind, e.g.
// "graphs", "nodes", "nodes_skipped", "steals", "queue_wait_ns".

/// Add `delta` to the scheduler counter `kind`.  Thread-safe.
void record_sched_counter(std::string_view kind, std::uint64_t delta = 1);

/// Snapshot of all scheduler counters, sorted by kind.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
sched_counters();

/// Counter for one kind; 0 when never recorded.
[[nodiscard]] std::uint64_t sched_counter(std::string_view kind);

/// Reset the scheduler counters.
void clear_sched_counters();

}  // namespace dcmesh::trace
