#pragma once
// autotune_hook.hpp — the dispatcher-side seam of the `auto` compute mode.
//
// A policy rule may map a call site to AUTO instead of a concrete compute
// mode (e.g. DCMESH_BLAS_POLICY="lfd/*=auto").  The dispatcher cannot
// decide what AUTO means — measuring kernels and persisting wisdom is the
// src/tune subsystem's job, and blas must not depend on tune (tune runs
// its calibration GEMMs *through* blas).  So the decision arrives through
// an installable callback, exactly like trace::set_gemm_time_model(): tune
// (via core::driver, or a test) installs a resolver; an auto-resolved call
// builds an auto_tune_request and takes whatever mode comes back.  With no
// resolver installed, AUTO degrades safely to standard arithmetic.

#include <functional>
#include <optional>
#include <string_view>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/compute_mode.hpp"

namespace dcmesh::blas {

/// How an `auto` decision was produced (annotated on verbose records,
/// metrics, and trace spans so runs are auditable).
enum class auto_provenance {
  none,       ///< Call was not auto-resolved.
  cached,     ///< Served from the in-memory or on-disk wisdom cache.
  modeled,    ///< Cold key: modes error-measured on this resolve, the
              ///< survivors ranked by the device cost model.
  defaulted,  ///< No resolver installed (or it declined): standard.
};

/// Display name of a provenance: "cached", "modeled", ...
[[nodiscard]] std::string_view name(auto_provenance provenance) noexcept;

/// One auto-resolution request: the identity and shape of the call whose
/// mode the tuner must choose.
struct auto_tune_request {
  std::string_view call_site;  ///< Site tag ("" = untagged).
  std::string_view routine;    ///< "SGEMM", "DGEMM", "CGEMM", "ZGEMM".
  blas_int m = 0;
  blas_int n = 0;
  blas_int k = 0;
  bool is_complex = false;
  bool is_fp64 = false;
  /// Per-site componentwise error budget in ULPs of the storage precision
  /// (the rule's ulp= flag); 0 = use the tuner's default budget.
  double ulp_budget = 0.0;
};

/// The resolver's answer.
struct auto_tune_choice {
  compute_mode mode = compute_mode::standard;
  auto_provenance provenance = auto_provenance::defaulted;
  /// Measured componentwise error of `mode` on the calibration operands,
  /// in storage-precision ULPs; 0 when unknown.
  double err_ulp = 0.0;
};

using auto_tune_fn =
    std::function<std::optional<auto_tune_choice>(const auto_tune_request&)>;

/// Install the auto resolver (tune::install_auto_tuner() points this at the
/// process-wide autotuner).  An empty function uninstalls.  Thread-safe.
void set_auto_tune_hook(auto_tune_fn fn);

/// True when a resolver is installed.
[[nodiscard]] bool auto_tune_hook_installed();

/// Run the installed resolver; nullopt when none is installed or the
/// resolver declines.  Called by the dispatcher for auto-resolved calls.
[[nodiscard]] std::optional<auto_tune_choice> auto_tune_resolve(
    const auto_tune_request& request);

}  // namespace dcmesh::blas
