#pragma once
// health.hpp — the step-level/per-call numerical health sentinel.
//
// Precision faults in DCMESH manifest as slow observable drift or sudden
// non-finite values, not crashes ("Reducing Numerical Precision
// Requirements in Quantum Chemistry Calculations", PAPERS.md), so
// detection lives at two levels:
//  * per-call: a cheap finite scan of the GEMM result at the dispatch
//    choke point (src/blas/src/gemm_dispatch.cpp), sampled or full;
//  * per-step: physics invariants in lfd::engine / core::driver —
//    wavefunction norm conservation, finite and bounded ekin/nexc/javg,
//    a bounded per-step ekin jump.
//
// DCMESH_HEALTH selects the level: off (default — zero hot-path cost
// beyond one cached knob read), sample (scan up to kSampleScanElems
// elements of C, deterministically strided), full (scan all of C).  Any
// non-off level also arms the step invariants and the driver's
// checkpoint-ring rollback.  A malformed value warns once and behaves as
// off — the env-robustness contract shared with the policy/ISA/trace
// variables.
//
// Detections become structured "health" events: a counter in the trace
// metrics registry (trace::health_counters()), a zero-duration "health"
// event in the Chrome trace when tracing is on, and an MKL_VERBOSE-gated
// stderr line — so a 2-day campaign's faults are visible in every sink
// the observability layer already exports.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace dcmesh::resil {

/// Per-call finite-scan intensity.
enum class health_level {
  off,     ///< No scanning, no step invariants (the default).
  sample,  ///< Scan up to kSampleScanElems elements of each result.
  full,    ///< Scan every element of each result.
};

/// Display/env token of a level, e.g. "sample".
[[nodiscard]] std::string_view name(health_level level) noexcept;

/// The active level: the programmatic override if set, else DCMESH_HEALTH
/// (a cached knob; malformed values warn once and read as off).
[[nodiscard]] health_level active_health_level();

/// Force a level programmatically (tests/examples); nullopt falls back to
/// the environment.
void set_health_level(std::optional<health_level> level);

/// Step-invariant tolerances, env-overridable (malformed values warn once
/// and keep the default — never throw).
struct invariant_limits {
  /// Max |norm drift| per QD step before the wavefunction norm-
  /// conservation invariant trips (DCMESH_HEALTH_NORM_DRIFT).
  double norm_drift_max = 1e-2;
  /// Bound on |ekin|, |epot|, |etot|, |nexc|, |javg|; NaN/Inf always trip
  /// (DCMESH_HEALTH_VALUE_MAX).
  double value_max = 1e6;
  /// Max relative ekin change between consecutive QD steps
  /// (DCMESH_HEALTH_EKIN_JUMP).
  double ekin_jump_rel = 0.5;
};

/// The active limits (defaults overlaid with the environment).
[[nodiscard]] invariant_limits active_limits();

/// Record one structured health event: bumps the metrics-registry counter
/// for `kind`, emits a zero-duration "health" trace event (site/detail as
/// args) when tracing is enabled, and prints one stderr line when
/// MKL_VERBOSE >= 1, through the writers BLAS call records use.  Kinds
/// used by the subsystem: "inject", "detect", "recover", "unrecovered",
/// "step_invariant", "rollback", "promote".
void record_health_event(std::string_view kind, std::string_view site,
                         std::string_view detail);

/// Sentinel cadence at level sample: DCMESH_HEALTH_SAMPLE=N scans every
/// Nth GEMM call (default 1 = every call).  Malformed or non-positive
/// values warn once and keep the default — never throw.
[[nodiscard]] std::uint64_t health_sample_period();

/// True when the current call is due a sample-level scan: advances a
/// process-wide call counter and fires on every health_sample_period()-th
/// call (the first call always scans).  Level `full` ignores the cadence.
[[nodiscard]] bool health_sample_due();

/// Reset the sampling call counter (tests).
void reset_health_sampling();

/// Elements scanned per result matrix at level sample.
inline constexpr std::size_t kSampleScanElems = 256;

inline constexpr std::string_view kHealthEnvVar = "DCMESH_HEALTH";
inline constexpr std::string_view kHealthSampleEnvVar =
    "DCMESH_HEALTH_SAMPLE";
inline constexpr std::string_view kNormDriftEnvVar =
    "DCMESH_HEALTH_NORM_DRIFT";
inline constexpr std::string_view kValueMaxEnvVar =
    "DCMESH_HEALTH_VALUE_MAX";
inline constexpr std::string_view kEkinJumpEnvVar =
    "DCMESH_HEALTH_EKIN_JUMP";

}  // namespace dcmesh::resil
