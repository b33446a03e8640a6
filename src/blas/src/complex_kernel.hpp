#pragma once
// complex_kernel.hpp — register-tile kernel of the fused complex engine
// (internal).
//
// The fused CGEMM/ZGEMM engine (gemm_complex.cpp) packs each complex
// operand block once into real planes (re, im with conjugation folded
// in, and the re+im sum plane under COMPLEX_3M) and sweeps them with
// this kernel.  One call computes NP real plane products on one
// kComplexMr x kComplexNr tile over one kBlockK slice of kc packed
// steps, each into its own accumulator tile, and adds the tiles into
// the running plane products:
//
//   acc[q] = sum_s a[q](:, s) * b[q](s, :)     q < NP, s ascending
//   p[q]  += sign_q * acc[q]
//
// Per C element the accumulation is exactly the real microkernel's
// chain: start from +0, one multiply-add per step, steps ascending.  The
// accumulators are GCC vector types (one 32-byte vector per tile
// column), so the register allocator keeps all NP x kComplexNr of them
// live; the same tile written with scalar arrays compiles to shuffles.
//
// The arithmetic must match the tier's real microkernel bit for bit:
// the scalar tier's template contracts `acc += a * b` exactly when the
// baseline compile does (never below -O2), and the avx2/avx512 kernels
// always fuse.  So this header is compiled three times, like the real
// kernels: in gemm_complex.cpp at the baseline ISA with the plain
// expression, and in microkernel_avx2.cpp / microkernel_avx512.cpp, with
// their FMA flags, with explicit fmadd.  The template lives in an
// anonymous namespace so each translation unit keeps its own copy (no
// ODR merging across ISA flags); each exports its copy through one
// complex_kernels_* function.

#include <complex>
#include <cstring>

#if defined(__FMA__)
#include <immintrin.h>
#endif

#include "dcmesh/blas/blas.hpp"

namespace dcmesh::blas::detail {

/// W-lane vectors of R (the GCC vector extension, which clang shares).
template <typename R, int W>
struct lanes_of {
  typedef R vec __attribute__((vector_size(W * sizeof(R))));
};

/// Tile rows: one 32-byte vector of R per tile column (8 floats, 4
/// doubles).
template <typename R>
inline constexpr int kComplexMr = static_cast<int>(32 / sizeof(R));
/// Tile columns (B elements broadcast per packed step).
inline constexpr int kComplexNr = 8;

/// NP plane products on one tile, added into the running products: a[q]
/// is an MR-tall packed A strip, b[q] an NR-wide packed B strip, and p[q]
/// the tile's top-left in running product q (column-major, leading
/// dimension ldp).  Product 0 is added times sign0 (+1 or -1), the
/// others as they are; either way each element sees one exact-sign add.
template <typename R, int NP>
using complex_kernel_fn = void (*)(blas_int kc, const R* const* a,
                                   const R* const* b, R* const* p,
                                   blas_int ldp, R sign0);

/// One ISA tier's kernels: the 4M pass (two products) and the 3M pass
/// (three).
template <typename R>
struct complex_kernels {
  complex_kernel_fn<R, 2> pair;
  complex_kernel_fn<R, 3> triple;
};

/// The avx2 and avx512 tiers' copies (microkernel_avx2.cpp,
/// microkernel_avx512.cpp); the baseline copy lives in gemm_complex.cpp.
[[nodiscard]] complex_kernels<float> complex_kernels_avx2_f32() noexcept;
[[nodiscard]] complex_kernels<double> complex_kernels_avx2_f64() noexcept;
[[nodiscard]] complex_kernels<float> complex_kernels_avx512_f32() noexcept;
[[nodiscard]] complex_kernels<double> complex_kernels_avx512_f64() noexcept;

/// The complex epilogue: C <- alpha*(Pr + i*Pi) + beta*C over an m x n
/// block, Pr and Pi column-major with leading dimension ldp; beta == 0
/// overwrites C, so NaN in C is ignored, as BLAS requires.  Each complex
/// product is formed as BLAS kernels form it, re = ar*pr - ai*pi and
/// im = ar*pi + ai*pr, with the first multiply of each fused into the
/// add where the build has hardware FMA: the bits std::complex gives for
/// finite values when the compiler contracts it that way, with no C99
/// Annex G recovery of infinities.  One out-of-line function, never
/// inlined or cloned, shared by every complex path and the test oracle,
/// so no caller's surroundings can change how it rounds.
template <typename R>
[[gnu::noipa]] void combine_planes(blas_int m, blas_int n,
                                   std::complex<R> alpha, const R* pr,
                                   const R* pi, blas_int ldp,
                                   std::complex<R> beta, std::complex<R>* c,
                                   blas_int ldc);

namespace {

/// acc + b * a on every lane.  Fused: one rounding, as the avx2/avx512
/// real kernels' explicit fmadd at any optimisation level.  Otherwise the
/// expression the scalar template writes, contracted or not exactly as
/// the compiler treats that template in the same build.
template <bool Fused, typename R, typename V>
inline V mul_add(R b, V a, V acc) noexcept {
  if constexpr (Fused) {
#if defined(__FMA__)
    if constexpr (sizeof(R) == 4) {
      return _mm256_fmadd_ps(_mm256_set1_ps(b), a, acc);
    } else {
      return _mm256_fmadd_pd(_mm256_set1_pd(b), a, acc);
    }
#else
    static_assert(!Fused, "fused tile kernels need an FMA translation unit");
#endif
  }
  return acc + b * a;
}

template <typename R, int NP, bool Fused>
void complex_tile_kernel(blas_int kc, const R* const* a, const R* const* b,
                         R* const* p, blas_int ldp, R sign0) noexcept {
  constexpr int mr = kComplexMr<R>;
  using V = typename lanes_of<R, mr>::vec;
  constexpr int nr = kComplexNr;
  V acc[NP][nr];
  for (int q = 0; q < NP; ++q) {
    for (int j = 0; j < nr; ++j) acc[q][j] = V{};
  }
  for (blas_int s = 0; s < kc; ++s) {
    for (int q = 0; q < NP; ++q) {
      V av;
      std::memcpy(&av, a[q] + s * mr, sizeof(V));
      const R* bs = b[q] + s * nr;
      for (int j = 0; j < nr; ++j) {
        acc[q][j] = mul_add<Fused>(bs[j], av, acc[q][j]);
      }
    }
  }
  for (int q = 0; q < NP; ++q) {
    const R sign = q == 0 ? sign0 : R(1);
    for (int j = 0; j < nr; ++j) {
      R* col = p[q] + j * ldp;
      V run;
      std::memcpy(&run, col, sizeof(V));
      run += sign * acc[q][j];
      std::memcpy(col, &run, sizeof(V));
    }
  }
}

/// This translation unit's copies; Fused in the avx2/avx512 units.
template <typename R, bool Fused>
[[nodiscard]] complex_kernels<R> complex_kernels_here() noexcept {
  return {&complex_tile_kernel<R, 2, Fused>,
          &complex_tile_kernel<R, 3, Fused>};
}

}  // namespace
}  // namespace dcmesh::blas::detail
