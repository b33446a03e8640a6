#pragma once
// gemm_call.hpp — the descriptor-based level-3 entry point.
//
// Every GEMM in minimkl funnels through run(gemm_call<T>): the legacy
// sgemm/dgemm/cgemm/zgemm free functions, the view-based gemm<T>, the
// CBLAS compatibility layer, the batched API, and the rank-k updates are
// all thin shims that fill in a descriptor.  One choke point means the
// precision policy engine, the accuracy guard, and the verbose logger see
// every call with the same information — and future batched/offload paths
// have a single seam to hook.
//
// The descriptor adds two fields the positional signatures could never
// carry:
//  * call_site — a stable tag ("lfd/nlp_prop/overlap") identifying *which*
//    call this is, the key per-site policies dispatch on;
//  * mode — an optional per-call compute mode, the strongest programmatic
//    override in the resolution order (see precision_policy.hpp).
// Both default to "absent", in which case run() behaves exactly like the
// legacy entry points did.

#include <complex>
#include <optional>
#include <string_view>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/compute_mode.hpp"
#include "dcmesh/resil/abft.hpp"

namespace dcmesh::blas {

/// Descriptor of one C <- alpha*op(A)*op(B) + beta*C call.
/// T in {float, double, std::complex<float>, std::complex<double>}.
template <typename T>
struct gemm_call {
  transpose transa = transpose::none;
  transpose transb = transpose::none;
  blas_int m = 0;
  blas_int n = 0;
  blas_int k = 0;
  T alpha = T(1);
  const T* a = nullptr;
  blas_int lda = 1;
  const T* b = nullptr;
  blas_int ldb = 1;
  T beta = T(0);
  T* c = nullptr;
  blas_int ldc = 1;
  /// Stable identity of this call site (e.g. "lfd/remap_occ/overlap");
  /// empty = untagged (no per-site policy can apply).
  std::string_view call_site = {};
  /// Per-call compute mode; overrides every other resolution layer.
  std::optional<compute_mode> mode = std::nullopt;
  /// Per-call ABFT override, the strongest layer in the ABFT resolution
  /// order (call > policy rule's abft= flag > DCMESH_ABFT).  The
  /// autotuner's calibration GEMMs set it to off, and tests pin it;
  /// ignored for complex types, where the checksum path is not
  /// implemented.
  std::optional<resil::abft_mode> abft = std::nullopt;
};

/// Execute one descriptor: resolve the effective compute mode for its
/// call_site, run the arithmetic (with the accuracy-guarded fallback when
/// a guarded policy rule matched), and log one verbose record carrying the
/// site, the resolved mode, and the guard verdict.
/// Throws std::invalid_argument on a malformed argument contract, exactly
/// like the legacy entry points.
template <typename T>
void run(const gemm_call<T>& call);

extern template void run<float>(const gemm_call<float>&);
extern template void run<double>(const gemm_call<double>&);
extern template void run<std::complex<float>>(
    const gemm_call<std::complex<float>>&);
extern template void run<std::complex<double>>(
    const gemm_call<std::complex<double>>&);

}  // namespace dcmesh::blas
