// intercept.cpp — libdcmesh_intercept.so: transparent BLAS interposition.
//
// Exports the STANDARD level-3 symbols — CBLAS (cblas_sgemm, ...,
// cblas_*gemm_batch_strided) and Fortran (sgemm_, dgemm_, cgemm_,
// zgemm_) — so that
//
//   LD_PRELOAD=libdcmesh_intercept.so ./any_blas_binary
//
// routes every GEMM of an UNMODIFIED application through the dcmesh
// descriptor engine: per-site precision policies (DCMESH_BLAS_POLICY),
// the accuracy-aware autotuner and wisdom cache (AUTO rules,
// DCMESH_TUNE_CACHE), fused split-mode kernels, the accuracy guard, the
// fault sentinel, MKL_VERBOSE records, per-site metrics, and trace
// spans.  This is the automatic-offloading design of the TACC tunable-
// precision line of work, minus any code change in the application.
//
// Call-site identity comes from __builtin_return_address(0), captured in
// each exported function and symbolized/cached by site_identity.cpp —
// module-relative in the default `addr` mode, so policies match and
// wisdom stays warm across runs despite ASLR.
//
// Every entry is a thin forward to the public C API (dcmesh_gemm /
// dcmesh_gemm_batch_strided in include/dcmesh/dcmesh_blas.h); no
// dispatch logic lives here.  A BLAS signature has no status channel, so
// a failed call (malformed dimensions, etc.) prints one stderr line and
// returns with C untouched — the moral equivalent of xerbla.
//
// The first intercepted call installs the autotuner (unless
// DCMESH_INTERCEPT_AUTOTUNE=0), because under pure LD_PRELOAD no driver
// exists to do it and AUTO policy rules would otherwise silently resolve
// to standard arithmetic.  Installation is deliberately lazy rather than
// in an ELF constructor: a constructor in this TU would run before the
// static initializers of the engine's archive-member TUs (.init_array
// order follows link order), and touching the tuner's registries that
// early crashes.  A function-local static sidesteps the ordering problem
// entirely and is thread-safe.
//
// Exports are controlled twice: the shim compiles with
// -fvisibility=hidden, and intercept.map (a linker version script) pins
// the exact exported set under the DCMESH_1.0 version node — CI diffs
// `nm -D` output against tests/intercept/exported_symbols.txt so the
// public ABI cannot drift silently.
//
// DCMESH_INTERCEPT_CHAIN=1 turns the shim into a pure pass-through:
// each entry forwards to the NEXT definition of its own symbol in the
// link chain (dlsym(RTLD_NEXT) — the system BLAS behind the preload)
// instead of the dcmesh engine.  That gives a zero-rebuild A/B baseline:
// the same preloaded binary runs once against dcmesh and once against
// the real BLAS, switched by one env var.  A symbol with no next
// definition warns once and falls back to the engine, so a binary that
// links no BLAS at all still works with the flag set.

#ifndef _GNU_SOURCE
#define _GNU_SOURCE 1
#endif
#include <dlfcn.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "dcmesh/blas/level2.hpp"
#include "dcmesh/blas/rank_k.hpp"
#include "dcmesh/blas/trsm.hpp"
#include "dcmesh/common/knobs.hpp"
#include "dcmesh/dcmesh_blas.h"
#include "site_identity.hpp"

namespace {

/// CBLAS transpose enum (111/112/113) to the API's trans char; anything
/// else maps to an invalid char the API rejects.
char cblas_trans(int t) {
  switch (t) {
    case 111: return 'N';
    case 112: return 'T';
    case 113: return 'C';
  }
  return '?';
}

/// Fortran TRANSA/TRANSB string (first char, case-insensitive).
char fortran_trans(const char* t) {
  return (t == nullptr || *t == '\0') ? '?' : *t;
}

// CBLAS enum ints to the C++ engine's enums, for the routines (trsm,
// syrk) that have no public C API and forward to the engine directly.
// Out-of-range values throw std::invalid_argument, caught by the same
// xerbla-style handler as engine-side validation failures.

dcmesh::blas::transpose engine_trans(int t) {
  switch (t) {
    case 111: return dcmesh::blas::transpose::none;
    case 112: return dcmesh::blas::transpose::trans;
    case 113: return dcmesh::blas::transpose::conj_trans;
  }
  throw std::invalid_argument("CBLAS trans must be 111/112/113");
}

/// Fortran TRANS character to the engine enum, for the Fortran entries
/// (gemv) that forward to the engine directly.
dcmesh::blas::transpose engine_trans(const char* t) {
  switch (fortran_trans(t)) {
    case 'N': case 'n': return dcmesh::blas::transpose::none;
    case 'T': case 't': return dcmesh::blas::transpose::trans;
    case 'C': case 'c': return dcmesh::blas::transpose::conj_trans;
  }
  throw std::invalid_argument("Fortran TRANS must be N/T/C");
}

dcmesh::blas::side engine_side(int s) {
  switch (s) {
    case 141: return dcmesh::blas::side::left;
    case 142: return dcmesh::blas::side::right;
  }
  throw std::invalid_argument("CBLAS side must be 141/142");
}

dcmesh::blas::uplo engine_uplo(int u) {
  switch (u) {
    case 121: return dcmesh::blas::uplo::upper;
    case 122: return dcmesh::blas::uplo::lower;
  }
  throw std::invalid_argument("CBLAS uplo must be 121/122");
}

dcmesh::blas::diag engine_diag(int d) {
  switch (d) {
    case 131: return dcmesh::blas::diag::non_unit;
    case 132: return dcmesh::blas::diag::unit;
  }
  throw std::invalid_argument("CBLAS diag must be 131/132");
}

void require_layout(int layout) {
  if (layout != 101 && layout != 102) {
    throw std::invalid_argument("CBLAS layout must be 101/102");
  }
}

dcmesh::blas::side flip(dcmesh::blas::side s) {
  return s == dcmesh::blas::side::left ? dcmesh::blas::side::right
                                       : dcmesh::blas::side::left;
}

dcmesh::blas::uplo flip(dcmesh::blas::uplo u) {
  return u == dcmesh::blas::uplo::upper ? dcmesh::blas::uplo::lower
                                        : dcmesh::blas::uplo::upper;
}

/// Real routines: ConjTrans is the same operation as Trans.
dcmesh::blas::transpose real_trans(dcmesh::blas::transpose t) {
  return t == dcmesh::blas::transpose::none ? t
                                            : dcmesh::blas::transpose::trans;
}

/// N <-> T of a real_trans() value.
dcmesh::blas::transpose flip(dcmesh::blas::transpose t) {
  return t == dcmesh::blas::transpose::none ? dcmesh::blas::transpose::trans
                                            : dcmesh::blas::transpose::none;
}

/// The engine's trsm/syrk throw instead of returning a status; a dropped
/// call prints the same one-line xerbla-style record as report().
void report_exception(const std::exception& e) {
  std::fprintf(stderr, "dcmesh-intercept: dropped call: %s\n", e.what());
}

void report(int status) {
  if (status != DCMESH_OK) {
    std::fprintf(stderr, "dcmesh-intercept: dropped call: %s\n",
                 dcmesh_last_error());
  }
}

// Shared bodies of the real trsm/syrk/gemv entries, one per routine.

template <typename T>
void trsm_entry(int layout, int side_v, int uplo_v, int transa, int diag_v,
                int m, int n, T alpha, const T* a, int lda, T* b, int ldb,
                const char* site) {
  try {
    require_layout(layout);
    auto s = engine_side(side_v);
    auto u = engine_uplo(uplo_v);
    const auto t = engine_trans(transa);
    const auto d = engine_diag(diag_v);
    if (layout == 101) {
      s = flip(s);
      u = flip(u);
      std::swap(m, n);
    }
    dcmesh::blas::trsm<T>(s, u, t, d, m, n, alpha, a, lda, b, ldb, site);
  } catch (const std::exception& e) {
    report_exception(e);
  }
}

template <typename T>
void syrk_entry(int layout, int uplo_v, int transa, int n, int k, T alpha,
                const T* a, int lda, T beta, T* c, int ldc,
                const char* site) {
  try {
    require_layout(layout);
    auto u = engine_uplo(uplo_v);
    auto t = real_trans(engine_trans(transa));
    if (layout == 101) {
      u = flip(u);
      t = flip(t);
    }
    dcmesh::blas::syrk<T>(u, t, n, k, alpha, a, lda, beta, c, ldc, site);
  } catch (const std::exception& e) {
    report_exception(e);
  }
}

/// `transa` is a CBLAS enum or a Fortran TRANS string.
template <typename T, typename Trans>
void gemv_entry(int layout, Trans transa, int m, int n, T alpha, const T* a,
                int lda, const T* x, int incx, T beta, T* y, int incy,
                const char* site) {
  try {
    require_layout(layout);
    auto t = real_trans(engine_trans(transa));
    if (layout == 101) {
      t = flip(t);
      std::swap(m, n);
    }
    dcmesh::blas::gemv<T>(t, m, n, alpha, a, lda, x, incx, beta, y, incy,
                          site);
  } catch (const std::exception& e) {
    report_exception(e);
  }
}

/// One-time arming of the autotuner, run on the first intercepted call
/// (NOT from an ELF constructor — see the header comment).
void ensure_armed() {
  static const bool armed = [] {
    if (dcmesh::intercept::autotune_enabled()) {
      dcmesh_install_autotuner();
    }
    return true;
  }();
  (void)armed;
}

/// Next definition of `name` behind the shim, or nullptr (warning once
/// per symbol — the lookup runs inside a function-local static
/// initializer, so each symbol resolves and warns at most once).
void* chain_next(const char* name) {
  void* fn = ::dlsym(RTLD_NEXT, name);
  if (fn == nullptr) {
    std::fprintf(stderr,
                 "dcmesh-intercept: DCMESH_INTERCEPT_CHAIN is on but no "
                 "\"%s\" is behind the shim; using the dcmesh engine\n",
                 name);
  }
  return fn;
}

}  // namespace

/// Pass-through hook, placed at the top of every interposed entry: when
/// chaining is on and the real symbol exists, call it and return.  The
/// dlsym lookup is lazy (first chained call) and cached for the process.
#define DCMESH_TRY_CHAIN(name, ...)                                   \
  if (dcmesh::intercept::chain_enabled()) {                           \
    static auto* const next =                                         \
        reinterpret_cast<decltype(&name)>(chain_next(#name));         \
    if (next != nullptr) {                                            \
      next(__VA_ARGS__);                                              \
      return;                                                         \
    }                                                                 \
  }

extern "C" {

// Shim-specific introspection (exported; used by tests and debuggers).
// Each re-reads its knob: the shim carries its own engine copy, whose
// knob cache a host's env_set or setenv cannot reach, so these calls are
// where the host hands the shim a changed environment.
DCMESH_PUBLIC const char* dcmesh_intercept_site_mode(void) {
  dcmesh::knob_changed(dcmesh::row(dcmesh::knob::intercept_site_mode).name);
  return dcmesh::intercept::name(dcmesh::intercept::active_site_mode());
}

DCMESH_PUBLIC int dcmesh_intercept_autotune(void) {
  dcmesh::knob_changed(dcmesh::row(dcmesh::knob::intercept_autotune).name);
  return dcmesh::intercept::autotune_enabled() ? 1 : 0;
}

DCMESH_PUBLIC int dcmesh_intercept_chain(void) {
  dcmesh::knob_changed(dcmesh::row(dcmesh::knob::intercept_chain).name);
  return dcmesh::intercept::chain_enabled() ? 1 : 0;
}

// ------------------------------------------------------------- CBLAS

DCMESH_PUBLIC void cblas_sgemm(int layout, int transa, int transb, int m,
                               int n, int k, float alpha, const float* a,
                               int lda, const float* b, int ldb, float beta,
                               float* c, int ldc) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_sgemm, layout, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
                   c, ldc)
  const char* site =
      dcmesh::intercept::site_for(__builtin_return_address(0));
  report(dcmesh_gemm('s', static_cast<dcmesh_layout>(layout),
                     cblas_trans(transa), cblas_trans(transb), m, n, k,
                     &alpha, a, lda, b, ldb, &beta, c, ldc, site, nullptr));
}

DCMESH_PUBLIC void cblas_dgemm(int layout, int transa, int transb, int m,
                               int n, int k, double alpha, const double* a,
                               int lda, const double* b, int ldb,
                               double beta, double* c, int ldc) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_dgemm, layout, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
                   c, ldc)
  const char* site =
      dcmesh::intercept::site_for(__builtin_return_address(0));
  report(dcmesh_gemm('d', static_cast<dcmesh_layout>(layout),
                     cblas_trans(transa), cblas_trans(transb), m, n, k,
                     &alpha, a, lda, b, ldb, &beta, c, ldc, site, nullptr));
}

DCMESH_PUBLIC void cblas_cgemm(int layout, int transa, int transb, int m,
                               int n, int k, const void* alpha,
                               const void* a, int lda, const void* b,
                               int ldb, const void* beta, void* c, int ldc) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_cgemm, layout, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
                   c, ldc)
  const char* site =
      dcmesh::intercept::site_for(__builtin_return_address(0));
  report(dcmesh_gemm('c', static_cast<dcmesh_layout>(layout),
                     cblas_trans(transa), cblas_trans(transb), m, n, k,
                     alpha, a, lda, b, ldb, beta, c, ldc, site, nullptr));
}

DCMESH_PUBLIC void cblas_zgemm(int layout, int transa, int transb, int m,
                               int n, int k, const void* alpha,
                               const void* a, int lda, const void* b,
                               int ldb, const void* beta, void* c, int ldc) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_zgemm, layout, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
                   c, ldc)
  const char* site =
      dcmesh::intercept::site_for(__builtin_return_address(0));
  report(dcmesh_gemm('z', static_cast<dcmesh_layout>(layout),
                     cblas_trans(transa), cblas_trans(transb), m, n, k,
                     alpha, a, lda, b, ldb, beta, c, ldc, site, nullptr));
}

// ----------------------------------------------- CBLAS strided batch

DCMESH_PUBLIC void cblas_sgemm_batch_strided(
    int layout, int transa, int transb, int m, int n, int k, float alpha,
    const float* a, int lda, int stride_a, const float* b, int ldb,
    int stride_b, float beta, float* c, int ldc, int stride_c, int batch) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_sgemm_batch_strided, layout, transa, transb, m, n, k, alpha, a, lda, stride_a, b, ldb,
                   stride_b, beta, c, ldc, stride_c, batch)
  const char* site =
      dcmesh::intercept::site_for(__builtin_return_address(0));
  report(dcmesh_gemm_batch_strided(
      's', static_cast<dcmesh_layout>(layout), cblas_trans(transa),
      cblas_trans(transb), m, n, k, &alpha, a, lda, stride_a, b, ldb,
      stride_b, &beta, c, ldc, stride_c, batch, site, nullptr));
}

DCMESH_PUBLIC void cblas_dgemm_batch_strided(
    int layout, int transa, int transb, int m, int n, int k, double alpha,
    const double* a, int lda, int stride_a, const double* b, int ldb,
    int stride_b, double beta, double* c, int ldc, int stride_c,
    int batch) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_dgemm_batch_strided, layout, transa, transb, m, n, k, alpha, a, lda, stride_a, b, ldb,
                   stride_b, beta, c, ldc, stride_c, batch)
  const char* site =
      dcmesh::intercept::site_for(__builtin_return_address(0));
  report(dcmesh_gemm_batch_strided(
      'd', static_cast<dcmesh_layout>(layout), cblas_trans(transa),
      cblas_trans(transb), m, n, k, &alpha, a, lda, stride_a, b, ldb,
      stride_b, &beta, c, ldc, stride_c, batch, site, nullptr));
}

DCMESH_PUBLIC void cblas_cgemm_batch_strided(
    int layout, int transa, int transb, int m, int n, int k,
    const void* alpha, const void* a, int lda, int stride_a, const void* b,
    int ldb, int stride_b, const void* beta, void* c, int ldc, int stride_c,
    int batch) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_cgemm_batch_strided, layout, transa, transb, m, n, k, alpha, a, lda, stride_a, b, ldb,
                   stride_b, beta, c, ldc, stride_c, batch)
  const char* site =
      dcmesh::intercept::site_for(__builtin_return_address(0));
  report(dcmesh_gemm_batch_strided(
      'c', static_cast<dcmesh_layout>(layout), cblas_trans(transa),
      cblas_trans(transb), m, n, k, alpha, a, lda, stride_a, b, ldb,
      stride_b, beta, c, ldc, stride_c, batch, site, nullptr));
}

DCMESH_PUBLIC void cblas_zgemm_batch_strided(
    int layout, int transa, int transb, int m, int n, int k,
    const void* alpha, const void* a, int lda, int stride_a, const void* b,
    int ldb, int stride_b, const void* beta, void* c, int ldc, int stride_c,
    int batch) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_zgemm_batch_strided, layout, transa, transb, m, n, k, alpha, a, lda, stride_a, b, ldb,
                   stride_b, beta, c, ldc, stride_c, batch)
  const char* site =
      dcmesh::intercept::site_for(__builtin_return_address(0));
  report(dcmesh_gemm_batch_strided(
      'z', static_cast<dcmesh_layout>(layout), cblas_trans(transa),
      cblas_trans(transb), m, n, k, alpha, a, lda, stride_a, b, ldb,
      stride_b, beta, c, ldc, stride_c, batch, site, nullptr));
}

// ----------------------------------------- CBLAS trsm / syrk (v1.1)
// No public C API exists for these; they forward straight to the C++
// engine (statically linked into the shim).  The engine is column-major
// only, so CblasRowMajor maps through the transpose identities:
//   trsm: op(A)X = aB row-major  ==  X^T op(A)^T = aB^T col-major
//         -> flip side, flip uplo, swap m/n (op and diag unchanged);
//   syrk: C = a op(A)op(A)^T + bC row-major == its transpose col-major
//         -> flip uplo, flip trans (N <-> T).
// A failed call prints one stderr line and leaves B/C untouched, the
// same xerbla-style contract as the gemm entries.

DCMESH_PUBLIC void cblas_strsm(int layout, int side_v, int uplo_v,
                               int transa, int diag_v, int m, int n,
                               float alpha, const float* a, int lda,
                               float* b, int ldb) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_strsm, layout, side_v, uplo_v, transa, diag_v, m, n, alpha, a, lda, b,
                   ldb)
  trsm_entry(layout, side_v, uplo_v, transa, diag_v, m, n, alpha, a, lda, b,
             ldb, dcmesh::intercept::site_for(__builtin_return_address(0)));
}

DCMESH_PUBLIC void cblas_dtrsm(int layout, int side_v, int uplo_v,
                               int transa, int diag_v, int m, int n,
                               double alpha, const double* a, int lda,
                               double* b, int ldb) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_dtrsm, layout, side_v, uplo_v, transa, diag_v, m, n, alpha, a, lda, b,
                   ldb)
  trsm_entry(layout, side_v, uplo_v, transa, diag_v, m, n, alpha, a, lda, b,
             ldb, dcmesh::intercept::site_for(__builtin_return_address(0)));
}

DCMESH_PUBLIC void cblas_ssyrk(int layout, int uplo_v, int transa, int n,
                               int k, float alpha, const float* a, int lda,
                               float beta, float* c, int ldc) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_ssyrk, layout, uplo_v, transa, n, k, alpha, a, lda, beta, c, ldc)
  syrk_entry(layout, uplo_v, transa, n, k, alpha, a, lda, beta, c, ldc,
             dcmesh::intercept::site_for(__builtin_return_address(0)));
}

DCMESH_PUBLIC void cblas_dsyrk(int layout, int uplo_v, int transa, int n,
                               int k, double alpha, const double* a,
                               int lda, double beta, double* c, int ldc) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_dsyrk, layout, uplo_v, transa, n, k, alpha, a, lda, beta, c, ldc)
  syrk_entry(layout, uplo_v, transa, n, k, alpha, a, lda, beta, c, ldc,
             dcmesh::intercept::site_for(__builtin_return_address(0)));
}

// ------------------------------------------------ CBLAS gemv (v1.2)
// The level-2 matrix-vector surface, forwarded to the engine like
// trsm/syrk (no public C API).  The engine is column-major only, so
// CblasRowMajor maps through the transpose identity: a row-major m x n
// A is the column-major n x m A^T with the same lda, hence
//   op=N  ->  y = A x   = (A^T)^T x  ->  swap m/n, trans
//   op=T  ->  y = A^T x = (A^T)   x  ->  swap m/n, none
// ConjTrans equals Trans for the real types exported here.

DCMESH_PUBLIC void cblas_sgemv(int layout, int transa, int m, int n,
                               float alpha, const float* a, int lda,
                               const float* x, int incx, float beta,
                               float* y, int incy) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_sgemv, layout, transa, m, n, alpha, a, lda, x, incx, beta, y, incy)
  gemv_entry(layout, transa, m, n, alpha, a, lda, x, incx, beta, y, incy,
             dcmesh::intercept::site_for(__builtin_return_address(0)));
}

DCMESH_PUBLIC void cblas_dgemv(int layout, int transa, int m, int n,
                               double alpha, const double* a, int lda,
                               const double* x, int incx, double beta,
                               double* y, int incy) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cblas_dgemv, layout, transa, m, n, alpha, a, lda, x, incx, beta, y, incy)
  gemv_entry(layout, transa, m, n, alpha, a, lda, x, incx, beta, y, incy,
             dcmesh::intercept::site_for(__builtin_return_address(0)));
}

// ---------------------------------------------------------- Fortran
// Column-major by definition; INTEGER arguments arrive by reference.

DCMESH_PUBLIC void sgemm_(const char* transa, const char* transb,
                          const int* m, const int* n, const int* k,
                          const float* alpha, const float* a,
                          const int* lda, const float* b, const int* ldb,
                          const float* beta, float* c, const int* ldc) {
  ensure_armed();
  DCMESH_TRY_CHAIN(sgemm_, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
  const char* site =
      dcmesh::intercept::site_for(__builtin_return_address(0));
  report(dcmesh_gemm('s', DCMESH_LAYOUT_COL_MAJOR, fortran_trans(transa),
                     fortran_trans(transb), *m, *n, *k, alpha, a, *lda, b,
                     *ldb, beta, c, *ldc, site, nullptr));
}

DCMESH_PUBLIC void dgemm_(const char* transa, const char* transb,
                          const int* m, const int* n, const int* k,
                          const double* alpha, const double* a,
                          const int* lda, const double* b, const int* ldb,
                          const double* beta, double* c, const int* ldc) {
  ensure_armed();
  DCMESH_TRY_CHAIN(dgemm_, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
  const char* site =
      dcmesh::intercept::site_for(__builtin_return_address(0));
  report(dcmesh_gemm('d', DCMESH_LAYOUT_COL_MAJOR, fortran_trans(transa),
                     fortran_trans(transb), *m, *n, *k, alpha, a, *lda, b,
                     *ldb, beta, c, *ldc, site, nullptr));
}

DCMESH_PUBLIC void cgemm_(const char* transa, const char* transb,
                          const int* m, const int* n, const int* k,
                          const void* alpha, const void* a, const int* lda,
                          const void* b, const int* ldb, const void* beta,
                          void* c, const int* ldc) {
  ensure_armed();
  DCMESH_TRY_CHAIN(cgemm_, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
  const char* site =
      dcmesh::intercept::site_for(__builtin_return_address(0));
  report(dcmesh_gemm('c', DCMESH_LAYOUT_COL_MAJOR, fortran_trans(transa),
                     fortran_trans(transb), *m, *n, *k, alpha, a, *lda, b,
                     *ldb, beta, c, *ldc, site, nullptr));
}

DCMESH_PUBLIC void zgemm_(const char* transa, const char* transb,
                          const int* m, const int* n, const int* k,
                          const void* alpha, const void* a, const int* lda,
                          const void* b, const int* ldb, const void* beta,
                          void* c, const int* ldc) {
  ensure_armed();
  DCMESH_TRY_CHAIN(zgemm_, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
  const char* site =
      dcmesh::intercept::site_for(__builtin_return_address(0));
  report(dcmesh_gemm('z', DCMESH_LAYOUT_COL_MAJOR, fortran_trans(transa),
                     fortran_trans(transb), *m, *n, *k, alpha, a, *lda, b,
                     *ldb, beta, c, *ldc, site, nullptr));
}

DCMESH_PUBLIC void sgemv_(const char* trans, const int* m, const int* n,
                          const float* alpha, const float* a,
                          const int* lda, const float* x, const int* incx,
                          const float* beta, float* y, const int* incy) {
  ensure_armed();
  DCMESH_TRY_CHAIN(sgemv_, trans, m, n, alpha, a, lda, x, incx, beta, y, incy)
  gemv_entry(102, trans, *m, *n, *alpha, a, *lda, x, *incx, *beta, y, *incy,
             dcmesh::intercept::site_for(__builtin_return_address(0)));
}

DCMESH_PUBLIC void dgemv_(const char* trans, const int* m, const int* n,
                          const double* alpha, const double* a,
                          const int* lda, const double* x, const int* incx,
                          const double* beta, double* y, const int* incy) {
  ensure_armed();
  DCMESH_TRY_CHAIN(dgemv_, trans, m, n, alpha, a, lda, x, incx, beta, y, incy)
  gemv_entry(102, trans, *m, *n, *alpha, a, *lda, x, *incx, *beta, y, *incy,
             dcmesh::intercept::site_for(__builtin_return_address(0)));
}

}  // extern "C"
