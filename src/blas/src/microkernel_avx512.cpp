// microkernel_avx512.cpp — explicit AVX-512 register-tile microkernels.
//
// This translation unit alone is compiled with -mavx512f -mavx512bw
// -mavx512dq -mavx512vl -mfma (see src/blas/CMakeLists.txt); it is only
// dispatched to after a runtime __builtin_cpu_supports check, so the
// rest of the library keeps the baseline ISA.  Both kernels perform, per
// C element, exactly one fmadd per packed k step with p ascending — the
// same operation order as the scalar template and the AVX2 kernels, so
// swapping tiers relocates which SIMD lane an element lands in but never
// reassociates its accumulation chain.
//
// Accumulator budget (32 ZMM registers):
//   float  14x32: 28 accumulators + 2 B vectors + 1 A broadcast = 31.
//   double  8x16: 16 accumulators + 2 B vectors + 1 A broadcast = 19.
//
// The row bodies are macro-expanded: 28 named accumulators keep the
// register allocator honest (a [14][2] array spills on GCC), and the
// load/fma/store pattern is identical for every row.

#include "complex_kernel.hpp"
#include "microkernel.hpp"

#if defined(DCMESH_HAVE_AVX512_KERNELS)

#include <immintrin.h>

namespace dcmesh::blas::detail {

// 14 rows x 32 columns, two ZMM vectors per row.
#define DCMESH_AVX512_F32_ROWS(X) \
  X(0) X(1) X(2) X(3) X(4) X(5) X(6) X(7) X(8) X(9) X(10) X(11) X(12) X(13)

void micro_kernel_avx512_f32(blas_int kc, const float* ap, const float* bp,
                             float* acc) noexcept {
#define DCMESH_LOAD(i)                                  \
  __m512 c##i##0 = _mm512_loadu_ps(acc + (i) * 32);     \
  __m512 c##i##1 = _mm512_loadu_ps(acc + (i) * 32 + 16);
  DCMESH_AVX512_F32_ROWS(DCMESH_LOAD)
#undef DCMESH_LOAD
  for (blas_int p = 0; p < kc; ++p) {
    const float* a = ap + p * 14;
    const __m512 b0 = _mm512_loadu_ps(bp + p * 32);
    const __m512 b1 = _mm512_loadu_ps(bp + p * 32 + 16);
#define DCMESH_FMA(i)                                \
  {                                                  \
    const __m512 ai = _mm512_set1_ps(a[i]);          \
    c##i##0 = _mm512_fmadd_ps(ai, b0, c##i##0);      \
    c##i##1 = _mm512_fmadd_ps(ai, b1, c##i##1);      \
  }
    DCMESH_AVX512_F32_ROWS(DCMESH_FMA)
#undef DCMESH_FMA
  }
#define DCMESH_STORE(i)                              \
  _mm512_storeu_ps(acc + (i) * 32, c##i##0);         \
  _mm512_storeu_ps(acc + (i) * 32 + 16, c##i##1);
  DCMESH_AVX512_F32_ROWS(DCMESH_STORE)
#undef DCMESH_STORE
}

#undef DCMESH_AVX512_F32_ROWS

// 8 rows x 16 columns, two ZMM vectors per row.
#define DCMESH_AVX512_F64_ROWS(X) X(0) X(1) X(2) X(3) X(4) X(5) X(6) X(7)

void micro_kernel_avx512_f64(blas_int kc, const double* ap,
                             const double* bp, double* acc) noexcept {
#define DCMESH_LOAD(i)                                  \
  __m512d c##i##0 = _mm512_loadu_pd(acc + (i) * 16);    \
  __m512d c##i##1 = _mm512_loadu_pd(acc + (i) * 16 + 8);
  DCMESH_AVX512_F64_ROWS(DCMESH_LOAD)
#undef DCMESH_LOAD
  for (blas_int p = 0; p < kc; ++p) {
    const double* a = ap + p * 8;
    const __m512d b0 = _mm512_loadu_pd(bp + p * 16);
    const __m512d b1 = _mm512_loadu_pd(bp + p * 16 + 8);
#define DCMESH_FMA(i)                                \
  {                                                  \
    const __m512d ai = _mm512_set1_pd(a[i]);         \
    c##i##0 = _mm512_fmadd_pd(ai, b0, c##i##0);      \
    c##i##1 = _mm512_fmadd_pd(ai, b1, c##i##1);      \
  }
    DCMESH_AVX512_F64_ROWS(DCMESH_FMA)
#undef DCMESH_FMA
  }
#define DCMESH_STORE(i)                              \
  _mm512_storeu_pd(acc + (i) * 16, c##i##0);         \
  _mm512_storeu_pd(acc + (i) * 16 + 8, c##i##1);
  DCMESH_AVX512_F64_ROWS(DCMESH_STORE)
#undef DCMESH_STORE
}

#undef DCMESH_AVX512_F64_ROWS

// The fused complex engine's tile kernel, compiled at this tier's ISA
// (complex_kernel.hpp), with one explicit fmadd per step like the
// kernels above.
complex_kernels<float> complex_kernels_avx512_f32() noexcept {
  return complex_kernels_here<float, true>();
}

complex_kernels<double> complex_kernels_avx512_f64() noexcept {
  return complex_kernels_here<double, true>();
}

}  // namespace dcmesh::blas::detail

#endif  // DCMESH_HAVE_AVX512_KERNELS
