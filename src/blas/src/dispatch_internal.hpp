#pragma once
// dispatch_internal.hpp — the dispatcher's resolve/execute split, shared
// with the batched entry point.
//
// run(gemm_call<T>) is record_call(run_planned(call, plan_call(call))).
// The batched path needs the halves separately: it plans ONCE for the
// whole batch (so an `auto` rule costs one tuner resolution per batched
// call, not one per element), records each element's record as a batch
// element (no span), and emits the batch's one span through record_batch.

#include <complex>
#include <type_traits>

#include "dcmesh/blas/autotune_hook.hpp"
#include "dcmesh/blas/gemm_call.hpp"
#include "dcmesh/blas/precision_policy.hpp"
#include "dcmesh/blas/verbose.hpp"

namespace dcmesh::blas::detail {

/// Routine naming/classification per element type.
template <typename T>
struct gemm_traits {
  static constexpr const char* routine = "SGEMM";
  static constexpr bool is_complex = false;
  static constexpr bool is_fp64 = false;
};
template <>
struct gemm_traits<double> {
  static constexpr const char* routine = "DGEMM";
  static constexpr bool is_complex = false;
  static constexpr bool is_fp64 = true;
};
template <>
struct gemm_traits<std::complex<float>> {
  static constexpr const char* routine = "CGEMM";
  static constexpr bool is_complex = true;
  static constexpr bool is_fp64 = false;
};
template <>
struct gemm_traits<std::complex<double>> {
  static constexpr const char* routine = "ZGEMM";
  static constexpr bool is_complex = true;
  static constexpr bool is_fp64 = true;
};

/// Fully resolved execution plan for one descriptor (or one whole batch):
/// the policy resolution with any AUTO rule already collapsed to a
/// concrete mode through the auto_tune_hook.
struct call_plan {
  mode_resolution res;
  /// != none exactly when an AUTO rule chose res.mode.
  auto_provenance tune = auto_provenance::none;
  /// Cache blocking for the whole planned execution (0 = per-ISA
  /// default): an explicit gemm_call override wins, else the tuner's
  /// per-shape wisdom.  Installed as a scoped override around
  /// run_planned so guard and health re-runs block identically —
  /// harmless for correctness (blocking is bit-neutral), but it keeps
  /// timings comparable.
  blas_int block_m = 0;
  blas_int block_n = 0;
  /// Resolved ABFT checksum-guard mode (per-call override > policy rule's
  /// abft= flag > DCMESH_ABFT process default).  Applied by run_planned
  /// for real element types; complex falls back to off.
  resil::abft_mode abft = resil::abft_mode::off;
};

/// Resolve site policy + auto hook for one call's shape.
template <typename T>
[[nodiscard]] call_plan plan_call(const gemm_call<T>& call);

/// Execute one descriptor under an already-resolved plan; returns its
/// record (start stamp, seconds, verdicts) for record_call.
template <typename T>
[[nodiscard]] call_record run_planned(const gemm_call<T>& call,
                                      const call_plan& plan);

/// Emit the one "gemm_batch" span of a batched call.  `summary` is its
/// first element's record with the batch's start, seconds, total flops and
/// `batch` set.
void record_batch(const call_record& summary);

}  // namespace dcmesh::blas::detail
