#pragma once
// verbose.hpp — MKL_VERBOSE-style per-call logging.
//
// The paper's artifact methodology extracts per-call matrix dimensions and
// timings from MKL_VERBOSE=2 output (Tables VI, VII, Figure 3b).  minimkl
// reproduces that: when the MKL_VERBOSE environment variable is >= 1, each
// level-3 call prints one line in the MKL format; independent of printing,
// the most recent calls are kept in an in-process log that benches and
// tests can query programmatically.
//
// With the per-site precision policy engine each record additionally
// carries the call-site tag, where the resolved mode came from, and the
// accuracy-guard verdict.  The text line keeps the MKL_VERBOSE-compatible
// prefix unchanged (extra fields are appended after it), and a
// machine-readable JSONL sink mirrors every record to the file named by
// MKL_VERBOSE_JSON, one JSON object per line.  Before its first printed
// line, a call record or a health event, a process prints one DCMESH_CONFIG
// line: every knob set in its environment, so a run's stderr records the
// configuration it ran with.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dcmesh/blas/autotune_hook.hpp"
#include "dcmesh/blas/compute_mode.hpp"
#include "dcmesh/blas/precision_policy.hpp"
#include "dcmesh/common/knobs.hpp"
#include "dcmesh/trace/tracer.hpp"

namespace dcmesh::blas {

/// Accuracy-guard outcome of one call.
enum class fallback_verdict {
  none,      ///< Call was not guarded (no guard check ran).
  passed,    ///< Guard check ran; residual within tolerance at first try.
  promoted,  ///< Residual exceeded tolerance; call re-ran at higher mode.
};

/// Display name of a verdict: "none", "passed", "promoted".
[[nodiscard]] std::string_view name(fallback_verdict verdict) noexcept;

/// Health-sentinel outcome of one call (resilience subsystem; see
/// resil/health.hpp).
enum class health_verdict {
  none,         ///< Sentinel off — no finite scan ran.
  clean,        ///< Scan ran; result finite.
  detected,     ///< Non-finite result found; recovery exhausted the ladder.
  recovered,    ///< Non-finite result found; a promoted re-run fixed it.
};

/// Display name of a health verdict: "none", "clean", "detected",
/// "recovered".
[[nodiscard]] std::string_view name(health_verdict verdict) noexcept;

/// ABFT checksum outcome of one call (resil/abft.hpp).
enum class abft_verdict {
  none,       ///< ABFT off (or not applicable) for this call.
  checked,    ///< Checksums verified; residuals within τ.
  detected,   ///< Mismatch found; detect-only mode kept the result.
  corrected,  ///< Single element located and corrected in place.
  recovered,  ///< Ambiguous mismatch; a rebuilt re-run came back clean.
  failed,     ///< Escalation exhausted the ladder; result kept as-is.
};

/// Display name of an ABFT verdict: "none", "checked", "detected",
/// "corrected", "recovered", "failed".
[[nodiscard]] std::string_view name(abft_verdict verdict) noexcept;

/// One recorded level-3 call.
struct call_record {
  std::string routine;  ///< "SGEMM", "CGEMM", ...
  char transa = 'N';
  char transb = 'N';
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  std::int64_t lda = 0;
  std::int64_t ldb = 0;
  std::int64_t ldc = 0;
  double seconds = 0.0;        ///< Wall time of the call on this host.
  /// When the call started: the span's ts.
  std::chrono::steady_clock::time_point start{};
  double flops = 0.0;          ///< Nominal standard-arithmetic flop count.
  compute_mode mode = compute_mode::standard;  ///< Final effective mode.

  // --- policy-engine fields (defaults reproduce pre-policy records) ---
  std::string call_site;       ///< Site tag; empty for untagged calls.
  /// Which resolution layer produced the mode (see precision_policy.hpp).
  policy_source source = policy_source::standard_default;
  /// Mode the policy resolved before any guard promotion (== mode unless
  /// the guard promoted the call).
  compute_mode requested_mode = compute_mode::standard;
  fallback_verdict fallback = fallback_verdict::none;
  double guard_residual = 0.0; ///< Sampled relative residual (guarded only).
  int attempts = 1;            ///< Arithmetic runs (1 = no re-run).
  /// How the `auto` mode chose this call's mode (none = not auto-resolved).
  auto_provenance tune = auto_provenance::none;

  // --- resilience fields (resil subsystem; defaults = feature off) ---
  /// Injected-fault description ("nan@(3,7)", "bitflip@(0,2):b12",
  /// "scale*1024"); empty when no fault was injected into this call.
  std::string fault;
  /// Finite-scan outcome (none unless DCMESH_HEALTH != off).
  health_verdict health = health_verdict::none;
  /// Checksum-guard outcome (none unless ABFT resolved != off).
  abft_verdict abft = abft_verdict::none;

  /// Size of the batched call this record is one element of (0 = a
  /// standalone call).  Not rendered; an element emits no span, since its
  /// batch emits one (detail::record_batch).
  std::int64_t batch = 0;

  /// Stamp `start` now.
  void start_clock() { start = std::chrono::steady_clock::now(); }
  /// Set `seconds` to the time since start_clock().
  void stop_clock() {
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  }

  /// Render in the MKL_VERBOSE line format.  The prefix through "mode:" is
  /// byte-identical to the pre-policy format; " site:...", " src:...",
  /// " tune:..." and " fallback:..." are appended only when a site, an
  /// auto decision, or a guard is present.
  [[nodiscard]] std::string to_string() const;

  /// Render as one JSON object (the MKL_VERBOSE_JSON line format).
  [[nodiscard]] std::string to_json() const;
};

/// True when MKL_VERBOSE requests per-call lines (value >= 1).
using trace::verbose_enabled;

/// Fan one call out to every sink: its span when tracing (none for a batch
/// element), its text line when verbose_enabled(), its JSON line when
/// MKL_VERBOSE_JSON is set, the metrics registry and the in-process log
/// (always).  Thread-safe.
void record_call(call_record record);

/// Canonical text of `text` as a value of knob `k`, nullopt when malformed:
/// render_knob_value, plus the policy, fault-plan and sched grammars.
/// DCMESH_FARM_KILL (the farm's grammar, above this layer) renders as is.
[[nodiscard]] std::optional<std::string> render_knob(knob k,
                                                     std::string_view text);

/// "DCMESH_CONFIG NAME=value ...": every knob set in the environment,
/// rendered by render_knob, or NAME=malformed->DEFAULT when rejected.
[[nodiscard]] std::string config_line();

/// Snapshot of the most recent calls, oldest first (bounded history).
[[nodiscard]] std::vector<call_record> recent_calls();

/// The most recent call; nullopt when none is recorded.
[[nodiscard]] std::optional<call_record> last_call();

/// Total number of calls recorded since start/clear.
[[nodiscard]] std::uint64_t call_count();

/// Reset the log and counters.
void clear_call_log();

/// Name of the controlling environment variable ("MKL_VERBOSE").
inline constexpr std::string_view kVerboseEnvVar = "MKL_VERBOSE";

/// Environment variable naming the JSONL sink file.  When set, every
/// record is appended to that file as one JSON line, independent of
/// MKL_VERBOSE.  The file is opened lazily and reopened when the value
/// changes; writes are line-buffered and thread-safe.
inline constexpr std::string_view kVerboseJsonEnvVar = "MKL_VERBOSE_JSON";

}  // namespace dcmesh::blas
