// split_avx512bf16.cpp — native AVX512-BF16 fused engine for the bf16
// split modes (FLOAT_TO_BF16{,X2,X3}).
//
// The software engine (sgemm_split) packs each BF16 component as its
// rounded FP32 representation and multiplies with FP32 fmadds.  On
// AVX512-BF16 silicon the rounding and the multiply both exist in
// hardware, so this engine packs the raw 16-bit component patterns —
// pair-interleaved along k, one 32-bit unit per (even, odd) k pair —
// with vcvtne2ps2bf16, and the dot kernel contracts them with vdpbf16ps
// (2 bf16 products + fp32 accumulate per lane per instruction): half the
// packed bytes and twice the per-instruction flops of the fp32 path.
//
// Numerical contract: vdpbf16ps sums each k pair in hardware before the
// fp32 accumulate, so the accumulation ORDER differs from the software
// engine's one-fmadd-per-k chain.  Every product is still individually
// exact (7-bit x 7-bit mantissas), so results are ULP-equivalent, NOT
// bit-identical, to sgemm_split — which is why dispatch gates this path
// behind bf16_native_active() and the bit-exactness tests force it off.
// Component VALUES are identical except that vcvtne2ps2bf16 flushes
// subnormal component values to zero where the software chain keeps
// them; both land well inside the bf16 ULP bound the tests use.
//
// Tile geometry matches the avx512 fp32 tier (14 x 32) so the MC/NC
// blocking quanta apply unchanged.

#if defined(DCMESH_HAVE_AVX512BF16_KERNELS)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "gemm_kernel.hpp"
#include "split.hpp"

namespace dcmesh::blas::detail {
namespace {

// Same register-tile shape as micro_kernel_avx512_f32: 14 rows x 32
// columns = 28 zmm fp32 accumulators + 2 B vectors + 1 broadcast.
inline constexpr int kNativeMr = 14;
inline constexpr int kNativeNr = 32;

static_assert(kBlockK % 2 == 0,
              "pair-interleaved panels assume an even K block");
static_assert(kNativeMr <= kMaxMr && kNativeNr <= kMaxNr);

// __m512i and __m512bh both carry __may_alias__, so a reference
// reinterpret is the sanctioned zero-cost bridge (GCC has no
// _mm512_castsi512_bh).
[[nodiscard]] inline __m512bh as_bh(const __m512i& v) noexcept {
  return reinterpret_cast<const __m512bh&>(v);
}

/// Round one contiguous column of kc_padded floats (zero-padded past the
/// live kc, kc_padded a multiple of 32) to its bf16 component chain:
/// comp c receives the raw 16-bit patterns at bits[c * kc_padded + p].
/// The recurrence is exactly the software pack's — round, subtract the
/// rounded value (rebuilt by exact widening), repeat — with
/// vcvtne2ps2bf16 doing the round-to-nearest-even.
inline void round_column_chain(const float* col, int ncomp,
                               blas_int kc_padded, std::uint16_t* bits) {
  for (blas_int p = 0; p < kc_padded; p += 32) {
    __m512 x0 = _mm512_loadu_ps(col + p);
    __m512 x1 = _mm512_loadu_ps(col + p + 16);
    for (int c = 0; c < ncomp; ++c) {
      // Words 0..15 of the result come from the SECOND operand, so this
      // stores the 32 bf16 patterns in ascending-p memory order.
      const __m512bh bh = _mm512_cvtne2ps_pbh(x1, x0);
      const __m512i w = reinterpret_cast<const __m512i&>(bh);
      _mm512_storeu_si512(bits + static_cast<std::size_t>(c) * kc_padded + p,
                          w);
      if (c + 1 < ncomp) {
        // residual -= widen(component): exact, like bf16::to_float().
        const __m256i lo = _mm512_castsi512_si256(w);
        const __m256i hi = _mm512_extracti64x4_epi64(w, 1);
        x0 = _mm512_sub_ps(
            x0, _mm512_castsi512_ps(
                    _mm512_slli_epi32(_mm512_cvtepu16_epi32(lo), 16)));
        x1 = _mm512_sub_ps(
            x1, _mm512_castsi512_ps(
                    _mm512_slli_epi32(_mm512_cvtepu16_epi32(hi), 16)));
      }
    }
  }
}

/// Fused pack of a kc x nc panel of op(B) into pair-interleaved bf16
/// component strips: strip s holds kc_pairs * kNativeNr uint32 units,
/// unit (q, j) = bits(p = 2q) | bits(p = 2q + 1) << 16 for strip column
/// j.  Odd kc pads the final pair's high half with +0.0 (a zero bf16
/// pattern), which vdpbf16ps turns into an exact no-op product.
void pack_b_bf16_pairs(const float* b, blas_int ldb, transpose op,
                       blas_int row0, blas_int col0, blas_int kc,
                       blas_int nc, int ncomp, std::uint32_t* dst,
                       std::size_t comp_stride, bool parallel) {
  const blas_int strips = (nc + kNativeNr - 1) / kNativeNr;
  const blas_int kc_pairs = (kc + 1) / 2;
  const blas_int kc_padded = (kc + 31) & ~blas_int{31};
  const auto pack_strip = [&](long s) {
    const std::size_t strip_off = static_cast<std::size_t>(s) *
                                  (static_cast<std::size_t>(kc_pairs) *
                                   kNativeNr);
    const blas_int j0 = static_cast<blas_int>(s) * kNativeNr;
    const int cols = static_cast<int>(std::min<blas_int>(kNativeNr, nc - j0));
    alignas(64) float colbuf[kBlockK];
    alignas(64) std::uint16_t bits[3 * kBlockK];
    std::fill(colbuf + kc, colbuf + kc_padded, 0.0f);
    for (int j = 0; j < kNativeNr; ++j) {
      if (j < cols) {
        if (op == transpose::none) {
          std::memcpy(colbuf,
                      b + row0 + static_cast<std::size_t>(col0 + j0 + j) * ldb,
                      static_cast<std::size_t>(kc) * sizeof(float));
        } else {  // trans / conj_trans (identical for real operands)
          const float* src =
              b + (col0 + j0 + j) + static_cast<std::size_t>(row0) * ldb;
          for (blas_int p = 0; p < kc; ++p) {
            colbuf[p] = src[static_cast<std::size_t>(p) * ldb];
          }
        }
        round_column_chain(colbuf, ncomp, kc_padded, bits);
        for (int c = 0; c < ncomp; ++c) {
          // Adjacent little-endian uint16 pairs ARE the lo | hi << 16
          // interleave — reinterpret, no shuffle.
          const std::uint32_t* units = reinterpret_cast<const std::uint32_t*>(
              bits + static_cast<std::size_t>(c) * kc_padded);
          std::uint32_t* out =
              dst + static_cast<std::size_t>(c) * comp_stride + strip_off + j;
          for (blas_int u = 0; u < kc_pairs; ++u) {
            out[static_cast<std::size_t>(u) * kNativeNr] = units[u];
          }
        }
      } else {
        for (int c = 0; c < ncomp; ++c) {
          std::uint32_t* out =
              dst + static_cast<std::size_t>(c) * comp_stride + strip_off + j;
          for (blas_int u = 0; u < kc_pairs; ++u) {
            out[static_cast<std::size_t>(u) * kNativeNr] = 0;
          }
        }
      }
    }
  };
  if (parallel &&
      ncomp * kc * nc >= pack_parallel_min_elems(kernel_isa::avx512)) {
    sched::team_parallel_for(strips, pack_strip);
  } else {
    for (blas_int s = 0; s < strips; ++s) pack_strip(s);
  }
}

/// Fused pack of an mc x kc block of op(A) into pair-interleaved strips:
/// strip s holds kc_pairs * kNativeMr units, unit (q, i) for strip row i.
void pack_a_bf16_pairs(const float* a, blas_int lda, transpose op,
                       blas_int row0, blas_int col0, blas_int mc,
                       blas_int kc, int ncomp, std::uint32_t* dst,
                       std::size_t comp_stride) {
  const blas_int strips = (mc + kNativeMr - 1) / kNativeMr;
  const blas_int kc_pairs = (kc + 1) / 2;
  const blas_int kc_padded = (kc + 31) & ~blas_int{31};
  alignas(64) float colbuf[kBlockK];
  alignas(64) std::uint16_t bits[3 * kBlockK];
  std::fill(colbuf + kc, colbuf + kc_padded, 0.0f);
  for (blas_int s = 0; s < strips; ++s) {
    const std::size_t strip_off = static_cast<std::size_t>(s) *
                                  (static_cast<std::size_t>(kc_pairs) *
                                   kNativeMr);
    const blas_int i0 = s * kNativeMr;
    const int rows = static_cast<int>(std::min<blas_int>(kNativeMr, mc - i0));
    for (int i = 0; i < kNativeMr; ++i) {
      if (i < rows) {
        if (op == transpose::none) {
          const float* src =
              a + (row0 + i0 + i) + static_cast<std::size_t>(col0) * lda;
          for (blas_int p = 0; p < kc; ++p) {
            colbuf[p] = src[static_cast<std::size_t>(p) * lda];
          }
        } else {  // op(A) row is a contiguous source column
          std::memcpy(colbuf,
                      a + col0 + static_cast<std::size_t>(row0 + i0 + i) * lda,
                      static_cast<std::size_t>(kc) * sizeof(float));
        }
        round_column_chain(colbuf, ncomp, kc_padded, bits);
        for (int c = 0; c < ncomp; ++c) {
          const std::uint32_t* units = reinterpret_cast<const std::uint32_t*>(
              bits + static_cast<std::size_t>(c) * kc_padded);
          std::uint32_t* out =
              dst + static_cast<std::size_t>(c) * comp_stride + strip_off + i;
          for (blas_int u = 0; u < kc_pairs; ++u) {
            out[static_cast<std::size_t>(u) * kNativeMr] = units[u];
          }
        }
      } else {
        for (int c = 0; c < ncomp; ++c) {
          std::uint32_t* out =
              dst + static_cast<std::size_t>(c) * comp_stride + strip_off + i;
          for (blas_int u = 0; u < kc_pairs; ++u) {
            out[static_cast<std::size_t>(u) * kNativeMr] = 0;
          }
        }
      }
    }
  }
}

#define DCMESH_BF16_ROWS(X) \
  X(0) X(1) X(2) X(3) X(4) X(5) X(6) X(7) X(8) X(9) X(10) X(11) X(12) X(13)

/// 14 x 32 vdpbf16ps register tile over kc_pairs pair units: each
/// instruction multiplies one A pair broadcast against 16 B pair units
/// and adds both products into the fp32 accumulator lane.  Named
/// accumulators for the same reason as microkernel_avx512.cpp: an array
/// would spill.
void bf16_dot_kernel_14x32(blas_int kc_pairs, const std::uint32_t* ap,
                           const std::uint32_t* bp, float* acc) {
#define DCMESH_BF16_LOAD(i)                                \
  __m512 c##i##0 = _mm512_loadu_ps(acc + (i) * kNativeNr); \
  __m512 c##i##1 = _mm512_loadu_ps(acc + (i) * kNativeNr + 16);
  DCMESH_BF16_ROWS(DCMESH_BF16_LOAD)
#undef DCMESH_BF16_LOAD
  for (blas_int q = 0; q < kc_pairs; ++q) {
    const std::uint32_t* aq = ap + static_cast<std::size_t>(q) * kNativeMr;
    const __m512i b0i =
        _mm512_loadu_si512(bp + static_cast<std::size_t>(q) * kNativeNr);
    const __m512i b1i =
        _mm512_loadu_si512(bp + static_cast<std::size_t>(q) * kNativeNr + 16);
    const __m512bh b0 = as_bh(b0i);
    const __m512bh b1 = as_bh(b1i);
#define DCMESH_BF16_FMA(i)                                              \
  {                                                                     \
    const __m512i a##i = _mm512_set1_epi32(static_cast<int>(aq[i]));    \
    c##i##0 = _mm512_dpbf16_ps(c##i##0, as_bh(a##i), b0);               \
    c##i##1 = _mm512_dpbf16_ps(c##i##1, as_bh(a##i), b1);               \
  }
    DCMESH_BF16_ROWS(DCMESH_BF16_FMA)
#undef DCMESH_BF16_FMA
  }
#define DCMESH_BF16_STORE(i)                      \
  _mm512_storeu_ps(acc + (i) * kNativeNr, c##i##0); \
  _mm512_storeu_ps(acc + (i) * kNativeNr + 16, c##i##1);
  DCMESH_BF16_ROWS(DCMESH_BF16_STORE)
#undef DCMESH_BF16_STORE
}

#undef DCMESH_BF16_ROWS

}  // namespace

void sgemm_split_bf16_native(compute_mode mode, transpose transa,
                             transpose transb, blas_int m, blas_int n,
                             blas_int k, float alpha, const float* a,
                             blas_int lda, const float* b, blas_int ldb,
                             float beta, float* c, blas_int ldc) {
  validate_gemm_args(transa, transb, m, n, k, a, lda, b, ldb, c, ldc,
                     /*needs_ab=*/alpha != 0.0f);
  if (m == 0 || n == 0) return;
  scale_c(m, n, beta, c, ldc);
  if (k == 0 || alpha == 0.0f) return;

  const split_spec spec = split_for(mode);
  const auto products = retained_products(spec.components);
  const gemm_blocking blk = blocking_for_team(
      effective_blocking(), m, static_cast<double>(m) * n * k, kNativeMr);
  const blas_int block_m = blk.mc;
  const blas_int block_n = blk.nc;
  const int ncomp = spec.components;
  const blas_int num_pc = (k + kBlockK - 1) / kBlockK;

  for (blas_int jc = 0; jc < n; jc += block_n) {
    const blas_int nc = std::min<blas_int>(block_n, n - jc);
    const blas_int n_strips = (nc + kNativeNr - 1) / kNativeNr;
    // Uniform per-(panel, component) stride in uint32 pair units, sized
    // for a full kBlockK panel; the last panel is just shorter.
    const std::size_t b_stride = static_cast<std::size_t>(n_strips) *
                                 (kBlockK / 2) * kNativeNr;
    std::uint32_t* bpack = pack_arena::for_thread().acquire<std::uint32_t>(
        kArenaSlotB,
        static_cast<std::size_t>(num_pc) * ncomp * b_stride);

    for (blas_int t = 0; t < num_pc; ++t) {
      const blas_int pc = t * kBlockK;
      const blas_int kc = std::min<blas_int>(kBlockK, k - pc);
      pack_b_bf16_pairs(b, ldb, transb, pc, jc, kc, nc, ncomp,
                        bpack + static_cast<std::size_t>(t) * ncomp * b_stride,
                        b_stride, /*parallel=*/true);
    }

    const blas_int ic_blocks = (m + block_m - 1) / block_m;
    const auto process_block = [&](blas_int ib) {
      const blas_int ic = ib * block_m;
      const blas_int mc = std::min<blas_int>(block_m, m - ic);
      const blas_int m_strips = (mc + kNativeMr - 1) / kNativeMr;
      const std::size_t a_stride = static_cast<std::size_t>(m_strips) *
                                   (kBlockK / 2) * kNativeMr;
      std::uint32_t* apack = pack_arena::for_thread().acquire<std::uint32_t>(
          kArenaSlotA,
          static_cast<std::size_t>(num_pc) * ncomp * a_stride);

      for (blas_int t = 0; t < num_pc; ++t) {
        const blas_int pc = t * kBlockK;
        const blas_int kc = std::min<blas_int>(kBlockK, k - pc);
        pack_a_bf16_pairs(a, lda, transa, ic, pc, mc, kc, ncomp,
                          apack +
                              static_cast<std::size_t>(t) * ncomp * a_stride,
                          a_stride);
      }

      // Same sweep order as sgemm_split: product-major, pc ascending,
      // tiles inside — per-product accumulation into C stays in the
      // reference order; only the intra-pair hardware sum differs.
      alignas(64) float acc[kNativeMr * kNativeNr];
      for (const auto& [pi, pj] : products) {
        for (blas_int t = 0; t < num_pc; ++t) {
          const blas_int kc = std::min<blas_int>(kBlockK, k - t * kBlockK);
          const blas_int kc_pairs = (kc + 1) / 2;
          const std::uint32_t* ap_panel =
              apack + (static_cast<std::size_t>(t) * ncomp + pi) * a_stride;
          const std::uint32_t* bp_panel =
              bpack + (static_cast<std::size_t>(t) * ncomp + pj) * b_stride;
          for (blas_int js = 0; js < n_strips; ++js) {
            const blas_int j0 = jc + js * kNativeNr;
            const int cols =
                static_cast<int>(std::min<blas_int>(kNativeNr, n - j0));
            for (blas_int is = 0; is < m_strips; ++is) {
              const blas_int i0 = ic + is * kNativeMr;
              const int rows =
                  static_cast<int>(std::min<blas_int>(kNativeMr, m - i0));
              std::fill_n(acc, kNativeMr * kNativeNr, 0.0f);
              bf16_dot_kernel_14x32(
                  kc_pairs,
                  ap_panel + static_cast<std::size_t>(is) *
                                 (static_cast<std::size_t>(kc_pairs) *
                                  kNativeMr),
                  bp_panel + static_cast<std::size_t>(js) *
                                 (static_cast<std::size_t>(kc_pairs) *
                                  kNativeNr),
                  acc);
              accumulate_tile(m, n, alpha, acc, i0, j0, rows, cols, c, ldc,
                              kNativeNr);
            }
          }
        }
      }
    };
    sched::team_parallel_for(ic_blocks, [&](long ib) { process_block(ib); });
  }
}

}  // namespace dcmesh::blas::detail

#endif  // DCMESH_HAVE_AVX512BF16_KERNELS
