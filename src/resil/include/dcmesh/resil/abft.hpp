#pragma once
// abft.hpp — algorithm-based fault tolerance (Huang–Abraham checksums)
// for the real-GEMM chokepoint.
//
// PR 5's health sentinel only catches *non-finite* damage; a transient
// bitflip landing in a mantissa produces a finite-but-wrong C that sails
// through every finite scan.  ABFT closes that hole algebraically: the
// dispatcher augments op(A) with a column-checksum row (e·A) and op(B)
// with a row-checksum column (B·e), runs the unchanged mode-dispatched
// kernel on the (m+1)×(n+1) problem, and verifies the interior row/column
// sums of C against the checksum row/column.  A corrupted element shows
// up as exactly one bad row × one bad column (locate); the residual delta
// plus a bitflip-snap recovers the clean bits (correct); anything
// ambiguous escalates to a rebuilt re-run and then up the mantissa
// promotion ladder.
//
// The detection threshold is intrinsically a *precision* question — the
// paper's theme: a residual bound that is tight for FP64 is noise for
// BF16X2.  τ is therefore derived per compute mode from the same
// componentwise error model the autotuner's ULP budgets use; the
// dispatcher passes the mode's representation/accumulation rounding units
// in (resil sits below blas in the layering and cannot name compute
// modes).
//
// Knob: DCMESH_ABFT = off|detect|correct (default off), overridable per
// policy rule (`abft=` flag in DCMESH_BLAS_POLICY) and per call.
// Malformed values warn once and read as off — the shared env-robustness
// contract.

#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace dcmesh::resil {

/// What the chokepoint does with a checksum mismatch.
enum class abft_mode {
  off,      ///< No augmentation, no checking (the default).
  detect,   ///< Verify + report; the corrupted result is kept.
  correct,  ///< Verify, locate, correct in place, escalate when ambiguous.
};

/// Display/env token of a mode, e.g. "correct".
[[nodiscard]] std::string_view name(abft_mode mode) noexcept;

/// Parse one abft token (case-insensitive: off|detect|correct|0|1|2);
/// nullopt when unrecognised.
[[nodiscard]] std::optional<abft_mode> parse_abft_mode(
    std::string_view token);

/// The active process-wide default: the programmatic override if set,
/// else DCMESH_ABFT (a cached knob; malformed warns once, reads off).
[[nodiscard]] abft_mode active_abft_mode();

/// Force a mode programmatically (tests/driver); nullopt falls back to
/// the environment.
void set_abft_mode(std::optional<abft_mode> mode);

/// Rounding units of the compute mode under check, supplied by the
/// dispatcher (u = 2^-(p+1) for p effective mantissa bits).
struct abft_error_model {
  double u_repr = 0x1p-24;  ///< Representation unit of the mode's operand
                            ///< encoding (2^-24 FP32/BF16X3, 2^-17 BF16X2,
                            ///< 2^-12 TF32, 2^-9 BF16, 2^-53 FP64).
  double u_acc = 0x1p-24;   ///< Accumulation unit of the kernel's
                            ///< accumulator type (FP32 or FP64).
};

/// Residual acceptance thresholds for the two checksum directions.
struct abft_thresholds {
  double tau_col = 0.0;  ///< Bound on |Σ_i C_ij − checksum_row_j|.
  double tau_row = 0.0;  ///< Bound on |Σ_j C_ij − checksum_col_i|.
};

/// Derive τ(mode, shape, data) from the componentwise error model:
///   τ_col = S · m · ( |α|·amax_a·amax_b · k·(2·u_repr + (k+2)·u_acc)
///                    + |β|·amax_c · (m+2)·u_acc )
/// (τ_row symmetric with m↔n).  The first term bounds the forward error
/// of one k-length mode-encoded dot product, summed over the m interior
/// elements plus the checksum element; the second covers the β·C seed of
/// the checksum row/column.  S = kAbftSafety absorbs the split engines'
/// longer accumulation chains (3k/6k partial products for BF16X2/X3).
[[nodiscard]] abft_thresholds derive_abft_thresholds(
    const abft_error_model& model, std::int64_t m, std::int64_t n,
    std::int64_t k, double abs_alpha, double amax_a, double amax_b,
    double abs_beta, double amax_c);

/// Deterministic safety factor in the τ derivation.
inline constexpr double kAbftSafety = 16.0;

/// Checksum-verification verdict over an augmented result: the flagged
/// rows/columns and their signed residuals (interior sum − checksum).
struct abft_scan {
  std::vector<std::int64_t> bad_rows;
  std::vector<std::int64_t> bad_cols;
  std::vector<double> row_delta;  ///< Aligned with bad_rows.
  std::vector<double> col_delta;  ///< Aligned with bad_cols.

  [[nodiscard]] bool clean() const noexcept {
    return bad_rows.empty() && bad_cols.empty();
  }
  /// Exactly one bad row × one bad column: a locatable single element.
  [[nodiscard]] bool single() const noexcept {
    return bad_rows.size() == 1 && bad_cols.size() == 1;
  }
};

/// Verify an (m+1)×(n+1) column-major augmented result (leading dimension
/// ld ≥ m+1): row m holds the column checksums, column n the row
/// checksums.  All sums run in double; a NaN residual always flags.
template <typename T>
[[nodiscard]] abft_scan verify_checksums(const T* caug, std::int64_t ld,
                                         std::int64_t m, std::int64_t n,
                                         const abft_thresholds& tau) {
  abft_scan scan;
  for (std::int64_t j = 0; j < n; ++j) {
    double sum = 0.0;
    const T* col = caug + j * ld;
    for (std::int64_t i = 0; i < m; ++i) sum += static_cast<double>(col[i]);
    const double delta = sum - static_cast<double>(col[m]);
    if (!(std::abs(delta) <= tau.tau_col)) {
      scan.bad_cols.push_back(j);
      scan.col_delta.push_back(delta);
    }
  }
  for (std::int64_t i = 0; i < m; ++i) {
    double sum = 0.0;
    for (std::int64_t j = 0; j < n; ++j)
      sum += static_cast<double>(caug[i + j * ld]);
    const double delta = sum - static_cast<double>(caug[i + n * ld]);
    if (!(std::abs(delta) <= tau.tau_row)) {
      scan.bad_rows.push_back(i);
      scan.row_delta.push_back(delta);
    }
  }
  return scan;
}

/// Bitflip-snap corrector: among the finite single-bitflip neighbours of
/// `faulty`, return the one nearest to `target` (= faulty − residual
/// delta) when it lands within `tol` of the target — recovering the
/// *exact* clean bits of a flipped element, which plain delta correction
/// cannot do once the checksum noise exceeds half a ulp (every low-
/// precision mode).  Falls back to `target` rounded to T when no
/// neighbour qualifies (non-bitflip corruption), and to `faulty` when
/// even that is non-finite.
[[nodiscard]] float snap_to_bitflip(float faulty, double target,
                                    double tol) noexcept;
[[nodiscard]] double snap_to_bitflip(double faulty, double target,
                                     double tol) noexcept;

inline constexpr std::string_view kAbftEnvVar = "DCMESH_ABFT";

}  // namespace dcmesh::resil
