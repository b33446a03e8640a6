#pragma once
// compute_mode.hpp — oneMKL-style alternative BLAS compute modes.
//
// Reproduces the control surface the paper relies on (Section III-B,
// Table II): modes are selected either through the MKL_BLAS_COMPUTE_MODE
// environment variable — requiring *no source changes* in the application —
// or programmatically.  The mode applies to every level-3 call in the
// process, exactly like the MKL env var; a scoped override is provided as
// the paper's "different BLAS calls at different precision" future-work
// extension.

#include <array>
#include <optional>
#include <string>
#include <string_view>

namespace dcmesh::blas {

/// Alternative compute modes for level-3 BLAS (paper Table II).
enum class compute_mode {
  standard,        ///< Default FP32/FP64/complex arithmetic.
  float_to_bf16,   ///< FP32 inputs rounded to 1 BF16 component.
  float_to_bf16x2, ///< FP32 inputs split into 2 BF16 components (3 products).
  float_to_bf16x3, ///< FP32 inputs split into 3 BF16 components (6 products).
  float_to_tf32,   ///< FP32 inputs rounded to TF32 (1 product).
  complex_3m,      ///< 3M complex multiplication (3 real products, not 4).
};

/// Number of distinct modes (including standard).
inline constexpr int kNumComputeModes = 6;

/// Static description of one compute mode.
struct compute_mode_info {
  compute_mode mode;
  std::string_view name;       ///< Display name, e.g. "BF16x2".
  std::string_view env_token;  ///< MKL_BLAS_COMPUTE_MODE value.
  /// Number of real component products per real multiplication
  /// (1 for BF16/TF32, 3 for BF16x2, 6 for BF16x3; 1 for standard/3M).
  int component_products;
  /// Peak theoretical speedup vs FP32 vector peak (paper Table II):
  /// BF16 16x, BF16x2 16/3, BF16x3 8/3, TF32 8x, 3M 4/3, standard 1.
  double peak_theoretical_speedup;
  /// Mantissa bits of the component format (23 for standard/3M).
  int component_mantissa_bits;
};

/// Registry of all modes in Table II order (standard first).
[[nodiscard]] const std::array<compute_mode_info, kNumComputeModes>&
compute_mode_registry() noexcept;

/// Lookup the registry entry for `mode`.
[[nodiscard]] const compute_mode_info& info(compute_mode mode) noexcept;

/// Display name, e.g. "FLOAT_TO_BF16X2" -> "BF16x2".
[[nodiscard]] std::string_view name(compute_mode mode) noexcept;

/// Parse an MKL_BLAS_COMPUTE_MODE token (case-insensitive); nullopt if the
/// token names no known mode.
[[nodiscard]] std::optional<compute_mode> parse_compute_mode(
    std::string_view token) noexcept;

/// The active mode as seen by the calling thread.  Resolution order,
/// matching oneMKL plus the scoped extension:
///  1. a scoped_compute_mode active on *this thread* (thread-local),
///  2. a value set through set_compute_mode() (the "dedicated API",
///     *process-wide*: every thread sees it),
///  3. the MKL_BLAS_COMPUTE_MODE environment variable (process-wide),
///  4. compute_mode::standard.
/// The environment variable is a cached knob (knobs.hpp): tests/examples
/// flip it at run time with env_set, as the paper's artifact instructions
/// do; a malformed value warns once and reads as unset.
///
/// Note: tagged calls resolve through resolve_compute_mode() in
/// precision_policy.hpp, which inserts per-site policies between layers
/// 1 and 2; for untagged calls the two resolutions are identical.
[[nodiscard]] compute_mode active_compute_mode();

/// Programmatically force a mode (overrides the environment variable).
/// Process-wide: affects every thread, like mkl_set_* APIs.  A thread's
/// scoped_compute_mode still takes precedence on that thread.
void set_compute_mode(compute_mode mode);

/// Drop any programmatic override and fall back to the environment.
void clear_compute_mode();

/// RAII scope that forces a mode for the current thread's BLAS calls and
/// restores the previous state on destruction.  This is the paper's
/// future-work item — per-call-site precision — implemented.
///
/// Thread-local by design: the override is invisible to other threads
/// (they keep resolving through set_compute_mode()/the environment), it
/// does not follow work handed to a thread pool, and a scope constructed
/// on one thread must be destroyed on the same thread.  Scopes nest per
/// thread; destruction restores that thread's previous scoped state.
class scoped_compute_mode {
 public:
  explicit scoped_compute_mode(compute_mode mode);
  ~scoped_compute_mode();
  scoped_compute_mode(const scoped_compute_mode&) = delete;
  scoped_compute_mode& operator=(const scoped_compute_mode&) = delete;

 private:
  bool had_previous_;
  compute_mode previous_;
};

/// The calling thread's scoped override, if a scoped_compute_mode is
/// active on it (layer 1 of the resolution order).
[[nodiscard]] std::optional<compute_mode> scoped_mode_override() noexcept;

/// The process-wide set_compute_mode() override, if set (layer 2).
[[nodiscard]] std::optional<compute_mode> api_mode_override();

/// The mode requested by MKL_BLAS_COMPUTE_MODE, if set and valid (layer 3).
[[nodiscard]] std::optional<compute_mode> env_mode_override();

/// Name of the controlling environment variable.
inline constexpr std::string_view kComputeModeEnvVar =
    "MKL_BLAS_COMPUTE_MODE";

}  // namespace dcmesh::blas
