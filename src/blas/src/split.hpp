#pragma once
// split.hpp — FP32 -> {BF16^N, TF32} operand decomposition (internal).
//
// oneMKL's FLOAT_TO_BF16{,X2,X3} modes represent each FP32 input as a sum
// of 1..3 BF16 values and multiply the component matrices on the systolic
// array with FP32 accumulation; FLOAT_TO_TF32 rounds to TF32.  Products of
// two BF16 (7-bit) or two TF32 (10-bit) mantissas are exact in FP32, so
// multiplying the *rounded FP32 representations* of the components on the
// CPU reproduces the hardware arithmetic bit-for-bit; only the accumulation
// order can differ, which is unspecified on hardware as well.
//
// The engine never materialises dense component matrices:
// pack_a_split/pack_b_split read each Goto-style panel from the source
// operand once, as pack_a/pack_b do, and split the packed panel in place
// into its N component panels (split_packed) while it is in cache.  The
// original two-phase arithmetic (dense component copies, one blocked
// pass per product) lives on in the test tree as the bit-exactness
// oracle.

#include <algorithm>
#include <span>
#include <utility>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/compute_mode.hpp"
#include "dcmesh/common/bf16.hpp"
#include "dcmesh/common/tf32.hpp"

namespace dcmesh::blas::detail {

/// Component rounding family of a split mode.
enum class round_kind { bf16, tf32 };

/// Properties of a split mode.
struct split_spec {
  int components;                      ///< 1, 2, or 3 components per operand.
  round_kind kind = round_kind::bf16;  ///< Component rounding.
};

/// Split parameters for a mode; standard/complex_3m are not split modes
/// (components == 0).
[[nodiscard]] constexpr split_spec split_for(compute_mode mode) noexcept {
  switch (mode) {
    case compute_mode::float_to_bf16:
      return {1, round_kind::bf16};
    case compute_mode::float_to_bf16x2:
      return {2, round_kind::bf16};
    case compute_mode::float_to_bf16x3:
      return {3, round_kind::bf16};
    case compute_mode::float_to_tf32:
      return {1, round_kind::tf32};
    default:
      return {0, round_kind::bf16};
  }
}

/// True when `mode` rounds/splits FP32 GEMM operands.
[[nodiscard]] constexpr bool is_split_mode(compute_mode mode) noexcept {
  return split_for(mode).components > 0;
}

/// Fused pack of an mc x kc block of op(A): spec.components packed
/// component blocks, each in the exact pack_a strip layout for an
/// `mr`-tall tile, at dst + c * comp_stride for component c: comp[0] =
/// round(x), comp[c] = round(x - comp[0] - ... - comp[c-1]), so the
/// component sum converges to x with ~7 extra mantissa bits per BF16
/// component.
void pack_a_split(const float* a, blas_int lda, transpose op, blas_int row0,
                  blas_int col0, blas_int mc, blas_int kc,
                  const split_spec& spec, float* dst,
                  std::size_t comp_stride, int mr);

/// Fused pack of a kc x nc panel of op(B) into component panels in the
/// pack_b strip layout for an `nr`-wide tile.  With `parallel`, strips
/// are packed by the scheduler's worker team once the panel clears the
/// fork-cost crossover.
void pack_b_split(const float* b, blas_int ldb, transpose op, blas_int row0,
                  blas_int col0, blas_int kc, blas_int nc,
                  const split_spec& spec, float* dst, std::size_t comp_stride,
                  int nr, bool parallel);

/// In-place split of `count` packed values: the value at slab[i] becomes
/// its spec.components components, component c at slab[c * comp_stride +
/// i] (comp_stride >= count), by the chain above.  Every split pack, real
/// and complex, packs its panel plainly first and splits it here.
void split_packed(float* slab, std::size_t count, const split_spec& spec,
                  std::size_t comp_stride);

/// sgemm under a FLOAT_TO_* split mode — the fused pack-once engine
/// (defined in gemm_real.cpp).
void sgemm_split(compute_mode mode, transpose transa, transpose transb,
                 blas_int m, blas_int n, blas_int k, float alpha,
                 const float* a, blas_int lda, const float* b, blas_int ldb,
                 float beta, float* c, blas_int ldc);

/// Native AVX512-BF16 fused engine for the bf16-family split modes
/// (split_avx512bf16.cpp; exists only when the build carries
/// DCMESH_HAVE_AVX512BF16_KERNELS and is dispatched only when
/// bf16_native_active()).  Packs pair-interleaved BF16 component panels
/// with vector converts and accumulates with vdpbf16ps, which sums k in
/// hardware pairs — ULP-equivalent, NOT bit-identical, to sgemm_split.
void sgemm_split_bf16_native(compute_mode mode, transpose transa,
                             transpose transb, blas_int m, blas_int n,
                             blas_int k, float alpha, const float* a,
                             blas_int lda, const float* b, blas_int ldb,
                             float beta, float* c, blas_int ldc);

/// Component-product pairs retained for an N-component split, in the order
/// they are accumulated: all (i, j) with i + j <= N - 1 (0-based), sorted by
/// ascending total order so the dominant (0,0) product is accumulated first.
/// N=1 -> 1 product; N=2 -> 3; N=3 -> 6 (Table II's 16x, 16/3x, 8/3x).
/// A view of a static table (every N's list is a prefix of N=3's), so the
/// GEMM path asks for it without allocating.
[[nodiscard]] inline std::span<const std::pair<int, int>> retained_products(
    int components) noexcept {
  static constexpr std::pair<int, int> kPairs[] = {
      {0, 0}, {0, 1}, {1, 0}, {0, 2}, {1, 1}, {2, 0}};
  const int n = std::clamp(components, 0, 3);
  return {kPairs, static_cast<std::size_t>(n * (n + 1) / 2)};
}

}  // namespace dcmesh::blas::detail
