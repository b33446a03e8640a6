#pragma once
// precision_policy.hpp — per-call-site precision policies with accuracy
// guards.
//
// The paper's future-work item is running *different BLAS calls at
// different precisions*.  The process-wide MKL_BLAS_COMPUTE_MODE switch
// (compute_mode.hpp) cannot express that, because nothing identifies which
// call a call is.  This subsystem closes the gap: every level-3 call may
// carry a `call_site` tag (e.g. "lfd/nlp_prop/overlap"), and a policy —
// an ordered list of glob rules — maps sites to compute modes.
//
// Resolution order for one call (most specific wins):
//  1. a per-call mode in the gemm_call descriptor (programmatic override),
//  2. a thread-local scoped_compute_mode,
//  3. the first matching policy rule (set_policy() > DCMESH_BLAS_POLICY),
//  4. the process-wide mode (set_compute_mode() > MKL_BLAS_COMPUTE_MODE),
//  5. compute_mode::standard.
// Steps 2/4/5 reproduce the pre-policy behaviour exactly, so untagged
// callers are unaffected.
//
// Policy grammar (DCMESH_BLAS_POLICY and run_config::blas_policy):
//   policy := rule (';' rule)*            (',' is also accepted)
//   rule   := glob '=' MODE (':' flag)*
//   flag   := 'guarded' | 'tol=<float>'   (tol implies guarded)
//           | 'ulp=<float>'               (auto-mode ULP error budget)
//           | 'abft=<off|detect|correct>' (per-site ABFT checksum guard,
//                                          overriding the DCMESH_ABFT
//                                          process default; resil/abft.hpp)
// where glob uses '*' (any sequence, '/' included) and '?' (one char), and
// MODE is any MKL_BLAS_COMPUTE_MODE token, case-insensitive — or AUTO,
// which delegates the choice to the accuracy-aware autotuner (src/tune)
// through the auto_tune_hook.  Example:
//   lfd/remap_occ/*=FLOAT_TO_BF16X2;lfd/nlp_prop/*=AUTO:ulp=512
// Rules are checked in order; the first match wins.
//
// A `guarded` rule enables the accuracy-guarded fallback: after a
// low-precision product, the dispatcher computes a row-sampled residual
// against a reference in the operand precision and transparently re-runs
// the call at the next-higher mode while the relative error exceeds the
// rule's tolerance (graceful degradation; the decision is recorded in the
// verbose log and in the per-site fallback statistics below).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dcmesh/blas/compute_mode.hpp"
#include "dcmesh/common/env.hpp"
#include "dcmesh/resil/abft.hpp"

namespace dcmesh::blas {

/// Where a call's effective compute mode came from.
enum class policy_source {
  standard_default,  ///< Nothing requested anything; standard arithmetic.
  env_global,        ///< MKL_BLAS_COMPUTE_MODE environment variable.
  api_global,        ///< set_compute_mode() process-wide override.
  site_policy,       ///< A matching per-site policy rule.
  scoped,            ///< Thread-local scoped_compute_mode.
  call_override,     ///< Per-call mode in the gemm_call descriptor.
};

/// Display name of a policy source, e.g. "site_policy".
[[nodiscard]] std::string_view name(policy_source source) noexcept;

/// One policy rule: sites matching `pattern` run at `mode` (or, when
/// `automatic`, at whatever the installed autotuner picks per shape).
struct policy_rule {
  std::string pattern;     ///< Glob over call-site tags ('*' and '?').
  compute_mode mode = compute_mode::standard;
  bool guarded = false;    ///< Enable the accuracy-guarded fallback.
  /// Relative residual tolerance for the guard; the global default
  /// (DCMESH_BLAS_GUARD_THRESHOLD or kDefaultGuardThreshold) when unset.
  std::optional<double> tolerance;
  /// MODE was AUTO: defer per-shape mode choice to the auto_tune_hook
  /// (`mode` is ignored; standard when no resolver is installed).
  bool automatic = false;
  /// Componentwise error budget for automatic rules, in ULPs of the
  /// storage precision; the tuner's default (DCMESH_TUNE_ULP_BUDGET)
  /// when unset.
  std::optional<double> ulp_budget;
  /// Per-site ABFT override (`abft=` flag); the DCMESH_ABFT process
  /// default applies when unset.
  std::optional<resil::abft_mode> abft;
};

/// An ordered rule list; first match wins.
struct precision_policy {
  std::vector<policy_rule> rules;

  /// First rule whose pattern matches `site`; nullptr when none does.
  [[nodiscard]] const policy_rule* match(std::string_view site) const noexcept;

  [[nodiscard]] bool empty() const noexcept { return rules.empty(); }
};

/// Glob matcher used by policy rules (see dcmesh::glob_match).
using dcmesh::glob_match;

/// Parse policy text per the grammar above.  Throws std::invalid_argument
/// naming the offending rule on malformed input (missing '=', unknown mode
/// token, unknown flag, unparsable tolerance).
[[nodiscard]] precision_policy parse_policy(std::string_view text);

/// Install a process-wide policy programmatically (overrides the
/// DCMESH_BLAS_POLICY environment variable until clear_policy()).
void set_policy(precision_policy policy);

/// Drop the programmatic policy and fall back to the environment.
void clear_policy();

/// The currently effective policy: the programmatic one if installed, else
/// the parsed DCMESH_BLAS_POLICY environment variable (a cached knob; a
/// malformed env policy is ignored after a one-time warning).
[[nodiscard]] precision_policy active_policy();

/// Outcome of resolving one call's compute mode.
struct mode_resolution {
  compute_mode mode = compute_mode::standard;
  policy_source source = policy_source::standard_default;
  bool guarded = false;      ///< Run the accuracy-guarded fallback path.
  double tolerance = 0.0;    ///< Guard tolerance (valid when guarded).
  /// An AUTO rule matched: the dispatcher must consult the auto_tune_hook
  /// for the concrete mode (`mode` holds the standard fallback).
  bool automatic = false;
  double ulp_budget = 0.0;   ///< AUTO error budget (0 = tuner default).
  /// Per-site ABFT override from the matched rule; the process default
  /// (active_abft_mode()) applies when unset.
  std::optional<resil::abft_mode> abft;
};

/// Resolve the effective mode for a call tagged `call_site` (may be empty)
/// with optional per-call override, per the resolution order above.
[[nodiscard]] mode_resolution resolve_compute_mode(
    std::string_view call_site, std::optional<compute_mode> call_override);

/// The next more accurate mode the guard promotes to:
/// BF16 -> TF32 -> BF16x2 -> BF16x3 -> standard; COMPLEX_3M -> standard.
[[nodiscard]] compute_mode next_higher_mode(compute_mode mode) noexcept;

/// Per-site accuracy-guard statistics.
struct site_fallback_stats {
  std::uint64_t guarded_calls = 0;  ///< Calls that ran the guard check.
  std::uint64_t promotions = 0;     ///< Calls re-run at a higher mode.
  compute_mode last_mode = compute_mode::standard;  ///< Final mode last run.
  double last_residual = 0.0;       ///< Sampled relative residual last run.
};

/// Record a guard outcome for `site` (called by the dispatcher).
void record_fallback(std::string_view site, bool promoted,
                     compute_mode final_mode, double residual);

/// Snapshot of the per-site guard statistics, sorted by site.
[[nodiscard]] std::vector<std::pair<std::string, site_fallback_stats>>
fallback_stats();

/// Reset the guard statistics.
void clear_fallback_stats();

/// Default relative residual tolerance of guarded rules.
inline constexpr double kDefaultGuardThreshold = 1e-2;

/// Environment variable holding the policy text.
inline constexpr std::string_view kPolicyEnvVar = "DCMESH_BLAS_POLICY";

/// Environment variable overriding kDefaultGuardThreshold.
inline constexpr std::string_view kGuardThresholdEnvVar =
    "DCMESH_BLAS_GUARD_THRESHOLD";

}  // namespace dcmesh::blas
