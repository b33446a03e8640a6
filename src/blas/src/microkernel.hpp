#pragma once
// microkernel.hpp — register-tile microkernels and their dispatch (internal).
//
// The MR x NR tile shapes, the portable scalar microkernel template, and
// the runtime kernel descriptor that swaps in the explicit AVX2+FMA or
// AVX-512 kernels for float/double when kernel_isa resolves to avx2 or
// avx512.  Every microkernel computes acc += Ap * Bp over kc packed
// steps with the SAME per-element operation order (p ascending, one
// fused or mul+add step per p), so swapping kernels can change results
// only through FMA contraction — never through reassociation.  Tile
// shapes differ per tier (they only relocate which SIMD lane an element
// lands in, not its accumulation chain), so the packing and blocked
// loops read MR/NR from the resolved kernel_desc instead of the
// compile-time micro_tile.  The resolve_* functions live in
// kernel_isa.cpp so that only the library (compiled with the
// DCMESH_HAVE_AVX2_KERNELS / DCMESH_HAVE_AVX512_KERNELS flags) decides
// whether the ISA symbols exist; headers stay ODR-safe for tests that
// include them.

#include <type_traits>

#include "dcmesh/blas/blas.hpp"
#include "kernel_isa.hpp"

namespace dcmesh::blas::detail {

/// Baseline register-tile shape per real element type (scalar and avx2
/// tiers).  float uses a 6x16 tile (12 YMM accumulators + 2 B vectors +
/// 1 A broadcast = 15 of 16 registers at AVX2 widths); double a 4x8
/// tile (8 accumulators).  The avx512 tier widens float to 14x32 and
/// double to 8x16 (28/16 ZMM accumulators + 2 B + 1 broadcast of 32
/// registers); those shapes are carried by kernel_desc, not by this
/// trait.  Complex GEMMs run on real planes with their own tile
/// (complex_kernel.hpp).
template <typename T>
struct micro_tile {
  static constexpr int mr = 6;
  static constexpr int nr = 16;
};
template <>
struct micro_tile<double> {
  static constexpr int mr = 4;
  static constexpr int nr = 8;
};

/// Upper bounds over every tier's tile shape — sizes the stack
/// accumulator tile and any MR/NR-dependent scratch.
inline constexpr int kMaxMr = 14;  // avx512 f32
inline constexpr int kMaxNr = 32;  // avx512 f32

/// Microkernel signature: acc += Ap * Bp over kc packed steps, where Ap is
/// an MR-tall strip, Bp an NR-wide strip, and acc an MR x NR row-major tile.
template <typename T>
using micro_kernel_fn = void (*)(blas_int kc, const T* ap, const T* bp,
                                 T* acc);

/// A resolved microkernel plus the tile shape it packs for.  mr/nr are
/// runtime values because the avx512 tier uses wider tiles than the
/// baseline micro_tile trait; resolve once per GEMM call and thread the
/// descriptor through packing and the blocked loops.
template <typename T>
struct kernel_desc {
  micro_kernel_fn<T> fn;
  int mr;
  int nr;
};

/// Portable MR x NR register-tile kernel (float and double).
template <typename T>
void micro_kernel_scalar(blas_int kc, const T* ap, const T* bp,
                         T* __restrict acc) noexcept {
  constexpr int mr = micro_tile<T>::mr;
  constexpr int nr = micro_tile<T>::nr;
  for (blas_int p = 0; p < kc; ++p) {
    const T* a = ap + p * mr;
    const T* b = bp + p * nr;
    for (int i = 0; i < mr; ++i) {
      const T ai = a[i];
#pragma omp simd
      for (int j = 0; j < nr; ++j) {
        acc[i * nr + j] += ai * b[j];
      }
    }
  }
}

/// Explicit AVX2+FMA kernels (microkernel_avx2.cpp; compiled only when the
/// toolchain supports -mavx2 -mfma and dispatched only when the CPU does).
void micro_kernel_avx2_f32(blas_int kc, const float* ap, const float* bp,
                           float* acc) noexcept;
void micro_kernel_avx2_f64(blas_int kc, const double* ap, const double* bp,
                           double* acc) noexcept;

/// Explicit AVX-512 kernels (microkernel_avx512.cpp; compiled only when
/// the toolchain supports -mavx512{f,bw,dq,vl} -mfma and dispatched only
/// when the CPU does).  float packs a 14x32 tile, double an 8x16 tile.
void micro_kernel_avx512_f32(blas_int kc, const float* ap, const float* bp,
                             float* acc) noexcept;
void micro_kernel_avx512_f64(blas_int kc, const double* ap,
                             const double* bp, double* acc) noexcept;

/// ISA-resolved kernel descriptors for the real types (kernel_isa.cpp).
[[nodiscard]] kernel_desc<float> resolve_kernel_desc_f32() noexcept;
[[nodiscard]] kernel_desc<double> resolve_kernel_desc_f64() noexcept;

/// The kernel + tile shape a GEMM call should use for element type T
/// under the active ISA.  Resolve once per call and reuse — the lookup
/// reads an atomic.
template <typename T>
[[nodiscard]] kernel_desc<T> select_kernel_desc() noexcept {
  static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>);
  if constexpr (std::is_same_v<T, float>) {
    return resolve_kernel_desc_f32();
  } else {
    return resolve_kernel_desc_f64();
  }
}

/// Invoke a resolved kernel on one tile.  The scalar kernel is recognised
/// by address and called directly so the compiler can inline it into the
/// blocked loop (keeping the accumulator tile in registers across the
/// fill/kernel/epilogue sequence); only the explicit ISA kernels go
/// through the pointer.  The branch is perfectly predicted — the kernel is
/// fixed for the duration of a GEMM call.
template <typename T>
inline void call_micro_kernel(micro_kernel_fn<T> kernel, blas_int kc,
                              const T* ap, const T* bp, T* acc) noexcept {
  if (kernel == &micro_kernel_scalar<T>) {
    micro_kernel_scalar<T>(kc, ap, bp, acc);
  } else {
    kernel(kc, ap, bp, acc);
  }
}

}  // namespace dcmesh::blas::detail
