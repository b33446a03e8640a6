// microkernel_avx2.cpp — explicit AVX2+FMA register-tile microkernels.
//
// This translation unit alone is compiled with -mavx2 -mfma (see
// src/blas/CMakeLists.txt); it is only dispatched to after a runtime
// __builtin_cpu_supports check, so the rest of the library keeps the
// baseline ISA.  Both kernels perform, per C element, exactly one
// fmadd per packed k step with p ascending — the same operation order as
// the scalar template, so the only possible numerical difference against
// a non-contracting scalar build is FMA's single rounding.
//
// Accumulator budget (16 YMM registers):
//   float  6x16: 12 accumulators + 2 B vectors + 1 A broadcast = 15.
//   double  4x8:  8 accumulators + 2 B vectors + 1 A broadcast = 11.

#include "complex_kernel.hpp"
#include "microkernel.hpp"

#if defined(DCMESH_HAVE_AVX2_KERNELS)

#include <immintrin.h>

namespace dcmesh::blas::detail {

void micro_kernel_avx2_f32(blas_int kc, const float* ap, const float* bp,
                           float* acc) noexcept {
  static_assert(micro_tile<float>::mr == 6 && micro_tile<float>::nr == 16);
  __m256 c00 = _mm256_loadu_ps(acc + 0 * 16);
  __m256 c01 = _mm256_loadu_ps(acc + 0 * 16 + 8);
  __m256 c10 = _mm256_loadu_ps(acc + 1 * 16);
  __m256 c11 = _mm256_loadu_ps(acc + 1 * 16 + 8);
  __m256 c20 = _mm256_loadu_ps(acc + 2 * 16);
  __m256 c21 = _mm256_loadu_ps(acc + 2 * 16 + 8);
  __m256 c30 = _mm256_loadu_ps(acc + 3 * 16);
  __m256 c31 = _mm256_loadu_ps(acc + 3 * 16 + 8);
  __m256 c40 = _mm256_loadu_ps(acc + 4 * 16);
  __m256 c41 = _mm256_loadu_ps(acc + 4 * 16 + 8);
  __m256 c50 = _mm256_loadu_ps(acc + 5 * 16);
  __m256 c51 = _mm256_loadu_ps(acc + 5 * 16 + 8);
  for (blas_int p = 0; p < kc; ++p) {
    const float* a = ap + p * 6;
    const __m256 b0 = _mm256_loadu_ps(bp + p * 16);
    const __m256 b1 = _mm256_loadu_ps(bp + p * 16 + 8);
    __m256 ai = _mm256_broadcast_ss(a + 0);
    c00 = _mm256_fmadd_ps(ai, b0, c00);
    c01 = _mm256_fmadd_ps(ai, b1, c01);
    ai = _mm256_broadcast_ss(a + 1);
    c10 = _mm256_fmadd_ps(ai, b0, c10);
    c11 = _mm256_fmadd_ps(ai, b1, c11);
    ai = _mm256_broadcast_ss(a + 2);
    c20 = _mm256_fmadd_ps(ai, b0, c20);
    c21 = _mm256_fmadd_ps(ai, b1, c21);
    ai = _mm256_broadcast_ss(a + 3);
    c30 = _mm256_fmadd_ps(ai, b0, c30);
    c31 = _mm256_fmadd_ps(ai, b1, c31);
    ai = _mm256_broadcast_ss(a + 4);
    c40 = _mm256_fmadd_ps(ai, b0, c40);
    c41 = _mm256_fmadd_ps(ai, b1, c41);
    ai = _mm256_broadcast_ss(a + 5);
    c50 = _mm256_fmadd_ps(ai, b0, c50);
    c51 = _mm256_fmadd_ps(ai, b1, c51);
  }
  _mm256_storeu_ps(acc + 0 * 16, c00);
  _mm256_storeu_ps(acc + 0 * 16 + 8, c01);
  _mm256_storeu_ps(acc + 1 * 16, c10);
  _mm256_storeu_ps(acc + 1 * 16 + 8, c11);
  _mm256_storeu_ps(acc + 2 * 16, c20);
  _mm256_storeu_ps(acc + 2 * 16 + 8, c21);
  _mm256_storeu_ps(acc + 3 * 16, c30);
  _mm256_storeu_ps(acc + 3 * 16 + 8, c31);
  _mm256_storeu_ps(acc + 4 * 16, c40);
  _mm256_storeu_ps(acc + 4 * 16 + 8, c41);
  _mm256_storeu_ps(acc + 5 * 16, c50);
  _mm256_storeu_ps(acc + 5 * 16 + 8, c51);
}

void micro_kernel_avx2_f64(blas_int kc, const double* ap, const double* bp,
                           double* acc) noexcept {
  static_assert(micro_tile<double>::mr == 4 && micro_tile<double>::nr == 8);
  __m256d c00 = _mm256_loadu_pd(acc + 0 * 8);
  __m256d c01 = _mm256_loadu_pd(acc + 0 * 8 + 4);
  __m256d c10 = _mm256_loadu_pd(acc + 1 * 8);
  __m256d c11 = _mm256_loadu_pd(acc + 1 * 8 + 4);
  __m256d c20 = _mm256_loadu_pd(acc + 2 * 8);
  __m256d c21 = _mm256_loadu_pd(acc + 2 * 8 + 4);
  __m256d c30 = _mm256_loadu_pd(acc + 3 * 8);
  __m256d c31 = _mm256_loadu_pd(acc + 3 * 8 + 4);
  for (blas_int p = 0; p < kc; ++p) {
    const double* a = ap + p * 4;
    const __m256d b0 = _mm256_loadu_pd(bp + p * 8);
    const __m256d b1 = _mm256_loadu_pd(bp + p * 8 + 4);
    __m256d ai = _mm256_broadcast_sd(a + 0);
    c00 = _mm256_fmadd_pd(ai, b0, c00);
    c01 = _mm256_fmadd_pd(ai, b1, c01);
    ai = _mm256_broadcast_sd(a + 1);
    c10 = _mm256_fmadd_pd(ai, b0, c10);
    c11 = _mm256_fmadd_pd(ai, b1, c11);
    ai = _mm256_broadcast_sd(a + 2);
    c20 = _mm256_fmadd_pd(ai, b0, c20);
    c21 = _mm256_fmadd_pd(ai, b1, c21);
    ai = _mm256_broadcast_sd(a + 3);
    c30 = _mm256_fmadd_pd(ai, b0, c30);
    c31 = _mm256_fmadd_pd(ai, b1, c31);
  }
  _mm256_storeu_pd(acc + 0 * 8, c00);
  _mm256_storeu_pd(acc + 0 * 8 + 4, c01);
  _mm256_storeu_pd(acc + 1 * 8, c10);
  _mm256_storeu_pd(acc + 1 * 8 + 4, c11);
  _mm256_storeu_pd(acc + 2 * 8, c20);
  _mm256_storeu_pd(acc + 2 * 8 + 4, c21);
  _mm256_storeu_pd(acc + 3 * 8, c30);
  _mm256_storeu_pd(acc + 3 * 8 + 4, c31);
}

// The fused complex engine's tile kernel, compiled at this tier's ISA
// (complex_kernel.hpp), with one explicit fmadd per step like the
// kernels above.
complex_kernels<float> complex_kernels_avx2_f32() noexcept {
  return complex_kernels_here<float, true>();
}

complex_kernels<double> complex_kernels_avx2_f64() noexcept {
  return complex_kernels_here<double, true>();
}

}  // namespace dcmesh::blas::detail

#endif  // DCMESH_HAVE_AVX2_KERNELS
