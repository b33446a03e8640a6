// gemm_complex.cpp — cgemm/zgemm: the fused complex engine for standard
// and 3M arithmetic, and the plane route of the FP32 split modes.
//
// Complex products run on real planes (the way the XMX hardware path
// consumes complex data, and what vectorizes): op(A) = Ar + i*Ai and
// op(B) = Br + i*Bi with conjugation folded into the imaginary plane.
//
//   4M:  Pr = Ar*Br - Ai*Bi          Pi = Ar*Bi + Ai*Br
//   3M:  P1 = Ar*Br, P2 = Ai*Bi, P3 = (Ar+Ai)*(Br+Bi)
//        Pr = P1 - P2                Pi = P3 - P1 - P2
//   C <- alpha*(Pr + i*Pi) + beta*C  (one complex epilogue per element)
//
// Each complex operand block is packed ONCE per use into real panels
// (pack_planes: re, im and, for 3M, the re+im sum), and one tile kernel
// (complex_kernel.hpp) sweeps two or three plane products at a time.
//
// Order contract (bit-identity with the plane-by-plane formulation, in
// which every product is its own blocked real GEMM): each real product is
// accumulated per kBlockK slice by the tier's multiply-add chain from +0,
// and the slices are added into the running plane product in ascending
// pc order, product-major.  4M therefore runs two passes over K:
//   pass 0 (A's real plane):      Pr += Ar*Br    Pi += Ar*Bi
//   pass 1 (A's imaginary plane): Pr -= Ai*Bi    Pi += Ai*Br
// so every Pr element sees all of its rr slices before any ii slice, as
// it does when Ar*Br and Ai*Bi are separate GEMMs.  3M is one pass: its
// three products accumulate into three separate plane products.  The
// running products live in the pack arena of the thread running the row
// block (at most MC x NC per plane, or the resident cap on the small
// path), never as per-slice partials, and nothing here allocates after
// warmup.
//
// Split modes apply to the component products and keep their per-product
// sgemm_split route, reading dense planes from the arena.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <type_traits>
#include <utility>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/gemm_call.hpp"
#include "dcmesh/sched/config.hpp"
#include "complex_kernel.hpp"
#include "gemm_kernel.hpp"
#include "gemm_modes.hpp"
#include "split.hpp"

namespace dcmesh::blas {
namespace detail {
namespace {

/// Calls of at most this many complex multiply-adds, whose running plane
/// products fit kResidentBytes, run as one block on the calling thread:
/// no MC/NC partition and no team fork.  Covers every
/// LFD call of the tiny preset (the largest, 8x8x512 and 512x8x8, are
/// 2^15) and the 32x32x32 subspace calls of the scaled one.
constexpr double kSmallMacs = 1 << 18;

/// A packed operand (all planes, whole K: the shared B panel, or one row
/// block of A) is packed once up front when it fits this size; a larger
/// one is packed per kBlockK slice as the passes reach it, which packs B
/// a second time for 4M's second pass.  Kept small: this scratch stays
/// allocated on every thread that ran a complex GEMM.
constexpr std::size_t kResidentBytes = std::size_t{512} * 1024;

/// The tile kernels of the active ISA tier.
template <typename R>
complex_kernels<R> select_complex_kernels() noexcept {
  switch (active_kernel_isa()) {
#if defined(DCMESH_HAVE_AVX512_KERNELS)
    case kernel_isa::avx512:
      if constexpr (std::is_same_v<R, float>) {
        return complex_kernels_avx512_f32();
      } else {
        return complex_kernels_avx512_f64();
      }
#endif
#if defined(DCMESH_HAVE_AVX2_KERNELS)
    case kernel_isa::avx2:
      if constexpr (std::is_same_v<R, float>) {
        return complex_kernels_avx2_f32();
      } else {
        return complex_kernels_avx2_f64();
      }
#endif
    default:
      return complex_kernels_here<R, false>();
  }
}

/// Element steps of op(X) for column-major X: along a row index and
/// along a column index.
struct op_steps {
  blas_int row;
  blas_int col;
};

constexpr op_steps steps_of(transpose op, blas_int ld) noexcept {
  return op == transpose::none ? op_steps{1, ld} : op_steps{ld, 1};
}

/// The planes one pack writes, at dst + q * plane_stride for plane q.
template <typename R>
struct plane_set {
  R* re;   // plane 0, or null
  R* im;   // plane 1 (negated when packing a conjugate), or null
  R* sum;  // plane 2 = re + im, or null
  R sign;  // +1, or -1 to fold a conjugation into im
};

/// Writes element (step p, lane l) of a w-wide strip to every plane.
template <typename R>
inline void put(const plane_set<R>& out, blas_int at, std::complex<R> x) {
  const R xr = x.real();
  const R xi = out.sign * x.imag();
  if (out.re) out.re[at] = xr;
  if (out.im) out.im[at] = xi;
  if (out.sum) out.sum[at] = xr + xi;
}

/// Shuffles of the concatenation (a, b) of two W-lane vectors: the even
/// or odd elements (re / im of W interleaved complex numbers), and the
/// two halves of one transpose butterfly stage, which swaps index bit B
/// between row and column: row r with bit B clear takes a[c] where c has
/// it clear and b[c ^ B] where set; the row with bit B set takes the
/// complement.  __builtin_shufflevector (GCC 12+, clang) takes constant
/// indices, expanded here from the lane sequence.
template <int Odd, typename V, int... C>
inline V stride2(V a, V b, std::integer_sequence<int, C...>) {
  return __builtin_shufflevector(a, b, (2 * C + Odd)...);
}
template <int W, int B, typename V, int... C>
inline V butterfly_low(V a, V b, std::integer_sequence<int, C...>) {
  return __builtin_shufflevector(a, b, ((C & B) == 0 ? C : W + (C ^ B))...);
}
template <int W, int B, typename V, int... C>
inline V butterfly_high(V a, V b, std::integer_sequence<int, C...>) {
  return __builtin_shufflevector(a, b, ((C & B) != 0 ? W + C : (C ^ B))...);
}

template <typename R, int W, int B>
inline void transpose_stage(typename lanes_of<R, W>::vec (&v)[W]) {
  constexpr auto seq = std::make_integer_sequence<int, W>{};
  for (int r = 0; r < W; ++r) {
    if (r & B) continue;
    const auto a = v[r];
    const auto b = v[r | B];
    v[r] = butterfly_low<W, B>(a, b, seq);
    v[r | B] = butterfly_high<W, B>(a, b, seq);
  }
}

/// In-register transpose of a W x W block (v[row][column]).
template <typename R, int W>
inline void transpose_block(typename lanes_of<R, W>::vec (&v)[W]) {
  transpose_stage<R, W, 1>(v);
  transpose_stage<R, W, 2>(v);
  if constexpr (W > 4) transpose_stage<R, W, 4>(v);
}

/// Loads W interleaved complex numbers as their re and im vectors.
template <typename R, int W>
inline void load_split(const std::complex<R>* src,
                       typename lanes_of<R, W>::vec& re,
                       typename lanes_of<R, W>::vec& im) {
  constexpr auto seq = std::make_integer_sequence<int, W>{};
  typename lanes_of<R, W>::vec lo, hi;
  std::memcpy(&lo, src, sizeof(lo));
  std::memcpy(&hi, src + W / 2, sizeof(hi));
  re = stride2<0>(lo, hi, seq);
  im = stride2<1>(lo, hi, seq);
}

/// Stores step p's lane vectors (re, im) to every plane.
template <typename R, int W>
inline void put_step(const plane_set<R>& out, blas_int at,
                     typename lanes_of<R, W>::vec re,
                     typename lanes_of<R, W>::vec im) {
  im *= out.sign;
  if (out.re) std::memcpy(out.re + at, &re, sizeof(re));
  if (out.im) std::memcpy(out.im + at, &im, sizeof(im));
  if (out.sum) {
    const auto sum = re + im;
    std::memcpy(out.sum + at, &sum, sizeof(sum));
  }
}

/// One W-wide strip: `live` lanes, lane l's step p at
/// x[l * lane_step + p * k_step].  Whole vectors where the layout allows:
/// consecutive lanes load as one vector per step; consecutive steps load
/// W at a time per lane and transpose in registers.
template <typename R, int W>
void pack_strip(const std::complex<R>* x, blas_int lane_step,
                blas_int k_step, blas_int live, blas_int kc,
                const plane_set<R>& out) {
  using V = typename lanes_of<R, W>::vec;
  blas_int p = 0;
  if (lane_step == 1 && live == W) {
    for (; p < kc; ++p) {
      V re, im;
      load_split<R, W>(x + p * k_step, re, im);
      put_step<R, W>(out, p * W, re, im);
    }
  } else if (k_step == 1) {
    for (; p + W <= kc; p += W) {
      V re[W], im[W];
      for (blas_int l = 0; l < W; ++l) {
        if (l < live) {
          load_split<R, W>(x + l * lane_step + p, re[l], im[l]);
        } else {
          re[l] = V{};
          im[l] = V{};
        }
      }
      transpose_block<R, W>(re);
      transpose_block<R, W>(im);
      for (int q = 0; q < W; ++q) {
        put_step<R, W>(out, (p + q) * W, re[q], im[q]);
      }
    }
  }
  for (; p < kc; ++p) {
    for (blas_int l = 0; l < W; ++l) {
      put(out, p * W + l,
          l < live ? x[l * lane_step + p * k_step] : std::complex<R>(0));
    }
  }
}

/// Pack `lanes` x kc elements of a complex operand into w-wide strips of
/// real planes.  Element (l, p) sits at x[l * lane_step + p * k_step];
/// strip s holds kc steps of w contiguous lanes, zero-padded past
/// `lanes`.  Planes [first, first + count) are written, plane q at
/// dst + q * plane_stride: 0 = re, 1 = im (negated when `conj`), 2 =
/// re + im.  A blocks pack with lanes = rows of op(A) and w = MR, B
/// panels with lanes = columns of op(B) and w = NR; any other w (the
/// split modes' dense planes) packs element by element.
template <typename R>
void pack_planes(const std::complex<R>* x, blas_int lane_step,
                 blas_int k_step, blas_int lanes, blas_int kc, blas_int w,
                 bool conj, int first, int count, R* dst,
                 std::size_t plane_stride) {
  const auto plane = [&](int q) {
    return q >= first && q < first + count ? dst + q * plane_stride
                                           : nullptr;
  };
  const blas_int strips = (lanes + w - 1) / w;
  for (blas_int s = 0; s < strips; ++s) {
    const blas_int live = std::min<blas_int>(w, lanes - s * w);
    const std::size_t at = static_cast<std::size_t>(s) * kc * w;
    const plane_set<R> out{plane(0) ? plane(0) + at : nullptr,
                           plane(1) ? plane(1) + at : nullptr,
                           plane(2) ? plane(2) + at : nullptr,
                           conj ? R(-1) : R(1)};
    const std::complex<R>* xs = x + s * w * lane_step;
    if (w == 8) {
      pack_strip<R, 8>(xs, lane_step, k_step, live, kc, out);
    } else if (w == 4) {
      pack_strip<R, 4>(xs, lane_step, k_step, live, kc, out);
    } else {
      for (blas_int p = 0; p < kc; ++p) {
        for (blas_int l = 0; l < w; ++l) {
          put(out, p * w + l,
              l < live ? xs[l * lane_step + p * k_step] : std::complex<R>(0));
        }
      }
    }
  }
}

/// a * b + c, with one rounding where the build has hardware FMA (as the
/// compiler contracts the expression there) and two elsewhere.
template <typename R>
inline R fused_mul_add(R a, R b, R c) noexcept {
#if defined(FP_FAST_FMAF) && defined(FP_FAST_FMA)
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

/// The fused engine: 4M (two passes) or 3M (one pass with three
/// accumulators) under the order contract above.  Requires m, n, k > 0.
template <typename R>
void gemm_fused(bool three_m, transpose transa, transpose transb, blas_int m,
                blas_int n, blas_int k, std::complex<R> alpha,
                const std::complex<R>* a, blas_int lda,
                const std::complex<R>* b, blas_int ldb, std::complex<R> beta,
                std::complex<R>* c, blas_int ldc) {
  constexpr blas_int mr = kComplexMr<R>;
  constexpr blas_int nr = kComplexNr;
  const complex_kernels<R> kernels = select_complex_kernels<R>();
  const int planes = three_m ? 3 : 2;  // per operand, and plane products
  const int passes = three_m ? 1 : 2;
  const blas_int num_pc = (k + kBlockK - 1) / kBlockK;
  const blas_int kc_max = std::min<blas_int>(k, kBlockK);
  const op_steps sa = steps_of(transa, lda);
  const op_steps sb = steps_of(transb, ldb);
  const bool conj_a = transa == transpose::conj_trans;
  const bool conj_b = transb == transpose::conj_trans;
  // A small call is one block whose running products fit the resident
  // cap, so that scratch stays bounded however tall or wide C is.
  const std::size_t small_p_bytes =
      static_cast<std::size_t>((m + mr - 1) / mr * mr) *
      ((n + nr - 1) / nr * nr) * planes * sizeof(R);
  const bool small = static_cast<double>(m) * n * k <= kSmallMacs &&
                     small_p_bytes <= kResidentBytes;
  const gemm_blocking blk = small ? gemm_blocking{m, n} : effective_blocking();
  const blas_int ic_blocks = (m + blk.mc - 1) / blk.mc;

  for (blas_int jc = 0; jc < n; jc += blk.nc) {
    const blas_int nc = std::min<blas_int>(blk.nc, n - jc);
    const blas_int n_strips = (nc + nr - 1) / nr;
    const std::size_t b_stride =
        static_cast<std::size_t>(n_strips) * kc_max * nr;
    const auto pack_b_slice = [&](blas_int t, R* dst) {
      const blas_int pc = t * kBlockK;
      pack_planes(b + pc * sb.row + jc * sb.col, sb.col, sb.row, nc,
                  std::min<blas_int>(kBlockK, k - pc), nr, conj_b, 0,
                  planes, dst, b_stride);
    };
    // A B panel that fits is packed once here, every slice and plane,
    // and shared read-only by the blocks; otherwise each block packs
    // its own slices as it reaches them.
    const bool b_shared = static_cast<std::size_t>(num_pc) * planes *
                              b_stride * sizeof(R) <=
                          kResidentBytes;
    R* b_panels = nullptr;
    if (b_shared) {
      b_panels = pack_arena::for_thread().acquire<R>(
          kArenaSlotB, static_cast<std::size_t>(num_pc) * planes * b_stride);
      for (blas_int t = 0; t < num_pc; ++t) {
        pack_b_slice(t, b_panels + t * planes * b_stride);
      }
    }

    const auto run_block = [&](blas_int ib) {
      const blas_int ic = ib * blk.mc;
      const blas_int mc = std::min<blas_int>(blk.mc, m - ic);
      const blas_int m_strips = (mc + mr - 1) / mr;
      const blas_int ldp = m_strips * mr;
      // The block's running plane products, on the thread that runs it:
      // column-major with mc and nc padded to whole strips, so the kernel
      // always adds full tiles.
      const std::size_t p_stride =
          static_cast<std::size_t>(ldp) * n_strips * nr;
      pack_arena& arena = pack_arena::for_thread();
      R* pr = arena.acquire<R>(kArenaSlotP, planes * p_stride);
      std::fill_n(pr, planes * p_stride, R(0));
      const std::size_t a_stride =
          static_cast<std::size_t>(m_strips) * kc_max * mr;
      const bool a_resident = static_cast<std::size_t>(num_pc) * planes *
                                  a_stride * sizeof(R) <=
                              kResidentBytes;
      R* a_panels = arena.acquire<R>(
          kArenaSlotA, (a_resident ? num_pc : 1) * planes * a_stride);
      R* b_block = b_shared ? nullptr
                            : arena.acquire<R>(kArenaSlotB, planes * b_stride);

      const auto pack_a_slice = [&](blas_int t, R* dst, int first,
                                    int count) {
        const blas_int pc = t * kBlockK;
        pack_planes(a + ic * sa.row + pc * sa.col, sa.row, sa.col, mc,
                    std::min<blas_int>(kBlockK, k - pc), mr, conj_a, first,
                    count, dst, a_stride);
      };
      if (a_resident) {
        for (blas_int t = 0; t < num_pc; ++t) {
          pack_a_slice(t, a_panels + t * planes * a_stride, 0, planes);
        }
      }

      for (int pass = 0; pass < passes; ++pass) {
        for (blas_int t = 0; t < num_pc; ++t) {
          const blas_int kc = std::min<blas_int>(kBlockK, k - t * kBlockK);
          const R* bt = b_panels + t * planes * b_stride;
          if (!b_shared) {
            pack_b_slice(t, b_block);
            bt = b_block;
          }
          const R* at = a_panels + t * planes * a_stride;
          if (!a_resident) {
            // 4M's pass reads one A plane; 3M's single pass all three.
            pack_a_slice(t, a_panels, three_m ? 0 : pass,
                         three_m ? planes : 1);
            at = a_panels;
          }
          for (blas_int js = 0; js < n_strips; ++js) {
            const R* bs = bt + js * kc * nr;
            for (blas_int is = 0; is < m_strips; ++is) {
              const R* as = at + is * kc * mr;
              R* tile = pr + js * nr * ldp + is * mr;
              if (three_m) {
                const R* ap[3] = {as, as + a_stride, as + 2 * a_stride};
                const R* bp[3] = {bs, bs + b_stride, bs + 2 * b_stride};
                R* pp[3] = {tile, tile + p_stride, tile + 2 * p_stride};
                kernels.triple(kc, ap, bp, pp, ldp, R(1));
              } else {
                // Pass 0: Pr += Ar*Br, Pi += Ar*Bi;
                // pass 1: Pr -= Ai*Bi, Pi += Ai*Br.
                const R* x = as + pass * a_stride;
                const R* ap[2] = {x, x};
                const R* bp[2] = {bs + pass * b_stride,
                                  bs + (1 - pass) * b_stride};
                R* pp[2] = {tile, tile + p_stride};
                kernels.pair(kc, ap, bp, pp, ldp, pass == 0 ? R(1) : R(-1));
              }
            }
          }
        }
      }

      R* pi = pr + p_stride;
      if (three_m) {
        const R* p3 = pi + p_stride;
        for (std::size_t e = 0; e < p_stride; ++e) {
          const R v1 = pr[e];
          const R v2 = pi[e];
          pr[e] = v1 - v2;
          pi[e] = p3[e] - v1 - v2;
        }
      }
      combine_planes(mc, nc, alpha, pr, pi, ldp, beta, c + ic + jc * ldc,
                     ldc);
    };
    // Blocks own disjoint rows of C, so the team needs no reduction.
    sched::team_parallel_for(ic_blocks, [&](long ib) { run_block(ib); });
  }
}

/// CGEMM under a FLOAT_TO_* mode: the split applies to each of the four
/// real plane products, so they stay four sgemm_split calls over dense
/// planes (held in the arena's planes slot, which sgemm_split never uses).
void gemm_split_planes(compute_mode mode, transpose transa, transpose transb,
                       blas_int m, blas_int n, blas_int k,
                       std::complex<float> alpha,
                       const std::complex<float>* a, blas_int lda,
                       const std::complex<float>* b, blas_int ldb,
                       std::complex<float> beta, std::complex<float>* c,
                       blas_int ldc) {
  const blas_int rows_a = transa == transpose::none ? m : k;
  const blas_int cols_a = transa == transpose::none ? k : m;
  const blas_int rows_b = transb == transpose::none ? k : n;
  const blas_int cols_b = transb == transpose::none ? n : k;
  const std::size_t size_a = static_cast<std::size_t>(rows_a) * cols_a;
  const std::size_t size_b = static_cast<std::size_t>(rows_b) * cols_b;
  const std::size_t size_c = static_cast<std::size_t>(m) * n;
  float* ar = pack_arena::for_thread().acquire<float>(
      kArenaSlotPlanes, 2 * (size_a + size_b + size_c));
  float* ai = ar + size_a;
  float* br = ai + size_a;
  float* bi = br + size_b;
  float* pr = bi + size_b;
  float* pi = pr + size_c;
  // One strip as wide as the operand is its dense column-major copy.
  pack_planes(a, 1, lda, rows_a, cols_a, rows_a,
              transa == transpose::conj_trans, 0, 2, ar, size_a);
  pack_planes(b, 1, ldb, rows_b, cols_b, rows_b,
              transb == transpose::conj_trans, 0, 2, br, size_b);

  // Conjugation is folded into the planes: each product is a real GEMM.
  const transpose ta = transa == transpose::none ? transa : transpose::trans;
  const transpose tb = transb == transpose::none ? transb : transpose::trans;
  sgemm_split(mode, ta, tb, m, n, k, 1.0f, ar, rows_a, br, rows_b, 0.0f, pr,
              m);
  sgemm_split(mode, ta, tb, m, n, k, -1.0f, ai, rows_a, bi, rows_b, 1.0f,
              pr, m);
  sgemm_split(mode, ta, tb, m, n, k, 1.0f, ar, rows_a, bi, rows_b, 0.0f, pi,
              m);
  sgemm_split(mode, ta, tb, m, n, k, 1.0f, ai, rows_a, br, rows_b, 1.0f, pi,
              m);
  combine_planes(m, n, alpha, pr, pi, m, beta, c, ldc);
}

/// Shared front half of both precisions: the BLAS argument contract and
/// the quick returns.  Returns false when no product is needed.
template <typename R>
bool needs_product(transpose transa, transpose transb, blas_int m,
                   blas_int n, blas_int k, std::complex<R> alpha,
                   const std::complex<R>* a, blas_int lda,
                   const std::complex<R>* b, blas_int ldb,
                   std::complex<R> beta, std::complex<R>* c, blas_int ldc) {
  validate_gemm_args(transa, transb, m, n, k, a, lda, b, ldb, c, ldc,
                     /*needs_ab=*/alpha != std::complex<R>(0));
  if (m == 0 || n == 0) return false;
  if (k == 0 || alpha == std::complex<R>(0)) {
    scale_c(m, n, beta, c, ldc);
    return false;
  }
  return true;
}

}  // namespace

template <typename R>
void combine_planes(blas_int m, blas_int n, std::complex<R> alpha,
                    const R* pr, const R* pi, blas_int ldp,
                    std::complex<R> beta, std::complex<R>* c, blas_int ldc) {
  const R ar = alpha.real();
  const R ai = alpha.imag();
  const R br = beta.real();
  const R bi = beta.imag();
  const bool overwrite = beta == std::complex<R>(0);
  for (blas_int j = 0; j < n; ++j) {
    const R* pr_col = pr + static_cast<std::size_t>(j) * ldp;
    const R* pi_col = pi + static_cast<std::size_t>(j) * ldp;
    R* c_col = reinterpret_cast<R*>(c + j * ldc);
    if (overwrite) {
      for (blas_int i = 0; i < m; ++i) {
        c_col[2 * i] = fused_mul_add(ar, pr_col[i], -(ai * pi_col[i]));
        c_col[2 * i + 1] = fused_mul_add(ar, pi_col[i], ai * pr_col[i]);
      }
    } else {
      for (blas_int i = 0; i < m; ++i) {
        const R cr = c_col[2 * i];
        const R ci = c_col[2 * i + 1];
        c_col[2 * i] = fused_mul_add(ar, pr_col[i], -(ai * pi_col[i])) +
                       fused_mul_add(br, cr, -(bi * ci));
        c_col[2 * i + 1] = fused_mul_add(ar, pi_col[i], ai * pr_col[i]) +
                           fused_mul_add(br, ci, bi * cr);
      }
    }
  }
}

template void combine_planes<float>(blas_int, blas_int, std::complex<float>,
                                    const float*, const float*, blas_int,
                                    std::complex<float>, std::complex<float>*,
                                    blas_int);
template void combine_planes<double>(blas_int, blas_int,
                                     std::complex<double>, const double*,
                                     const double*, blas_int,
                                     std::complex<double>,
                                     std::complex<double>*, blas_int);

void gemm_at_mode(compute_mode mode, transpose transa, transpose transb,
                  blas_int m, blas_int n, blas_int k,
                  std::complex<float> alpha, const std::complex<float>* a,
                  blas_int lda, const std::complex<float>* b, blas_int ldb,
                  std::complex<float> beta, std::complex<float>* c,
                  blas_int ldc) {
  if (!needs_product(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                     ldc)) {
    return;
  }
  if (is_split_mode(mode)) {
    gemm_split_planes(mode, transa, transb, m, n, k, alpha, a, lda, b, ldb,
                      beta, c, ldc);
  } else {
    gemm_fused(mode == compute_mode::complex_3m, transa, transb, m, n, k,
               alpha, a, lda, b, ldb, beta, c, ldc);
  }
}

void gemm_at_mode(compute_mode mode, transpose transa, transpose transb,
                  blas_int m, blas_int n, blas_int k,
                  std::complex<double> alpha, const std::complex<double>* a,
                  blas_int lda, const std::complex<double>* b, blas_int ldb,
                  std::complex<double> beta, std::complex<double>* c,
                  blas_int ldc) {
  if (!needs_product(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                     ldc)) {
    return;
  }
  // FP32 split modes do not apply to double precision; COMPLEX_3M does.
  gemm_fused(mode == compute_mode::complex_3m, transa, transb, m, n, k, alpha,
             a, lda, b, ldb, beta, c, ldc);
}

}  // namespace detail

void cgemm(transpose transa, transpose transb, blas_int m, blas_int n,
           blas_int k, std::complex<float> alpha, const std::complex<float>* a,
           blas_int lda, const std::complex<float>* b, blas_int ldb,
           std::complex<float> beta, std::complex<float>* c, blas_int ldc) {
  run(gemm_call<std::complex<float>>{transa, transb, m, n, k, alpha, a, lda,
                                     b, ldb, beta, c, ldc});
}

void zgemm(transpose transa, transpose transb, blas_int m, blas_int n,
           blas_int k, std::complex<double> alpha,
           const std::complex<double>* a, blas_int lda,
           const std::complex<double>* b, blas_int ldb,
           std::complex<double> beta, std::complex<double>* c,
           blas_int ldc) {
  run(gemm_call<std::complex<double>>{transa, transb, m, n, k, alpha, a,
                                      lda, b, ldb, beta, c, ldc});
}

}  // namespace dcmesh::blas
