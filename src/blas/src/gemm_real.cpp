// gemm_real.cpp — sgemm/dgemm: the fused split-mode engine and the legacy
// positional shims over the descriptor dispatcher.

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/gemm_call.hpp"
#include "dcmesh/sched/config.hpp"
#include "gemm_kernel.hpp"
#include "gemm_modes.hpp"
#include "split.hpp"

namespace dcmesh::blas {
namespace detail {

/// sgemm under a FLOAT_TO_* mode — the fused pack-once engine.
///
/// Instead of materialising N dense component copies of A and B and
/// running one full blocked pass (with its own packing) per retained
/// product, the decomposition is fused into the panel packing: every
/// (pc, jc) B-panel and (ic, pc) A-block is read from the source operand
/// exactly once and emitted as N component panels in the shared packed
/// layout.  All retained products then sweep the packed panels with the
/// dispatched microkernel.
///
/// Bit-level contract: for every C element the reference path applies
/// `c += alpha * acc(product, pc)` product-major with pc ascending inside
/// each product, where acc is the microkernel's FP32 accumulation over
/// one kBlockK slice.  The tile sweep below replays exactly that order
/// (products outer, pc panels inner, same kBlockK partition, same
/// microkernel, same one-rounding epilogue), so results are bit-identical
/// to the two-phase reference (dense component copies, one blocked pass
/// per product; the tests' oracle) under any kernel ISA — the fusion
/// moves memory traffic, not arithmetic.
void sgemm_split(compute_mode mode, transpose transa, transpose transb,
                 blas_int m, blas_int n, blas_int k, float alpha,
                 const float* a, blas_int lda, const float* b, blas_int ldb,
                 float beta, float* c, blas_int ldc) {
  validate_gemm_args(transa, transb, m, n, k, a, lda, b, ldb, c, ldc,
                     /*needs_ab=*/alpha != 0.0f);
  if (m == 0 || n == 0) return;
  scale_c(m, n, beta, c, ldc);
  if (k == 0 || alpha == 0.0f) return;

  const split_spec spec = split_for(mode);
  const auto products = retained_products(spec.components);
  const kernel_desc<float> desc = select_kernel_desc<float>();
  const int mr = desc.mr;
  const int nr = desc.nr;
  const gemm_blocking blk = blocking_for_team(
      effective_blocking(), m, static_cast<double>(m) * n * k, mr);
  const blas_int block_m = blk.mc;
  const blas_int block_n = blk.nc;
  const int ncomp = spec.components;
  const blas_int num_pc = (k + kBlockK - 1) / kBlockK;

  for (blas_int jc = 0; jc < n; jc += block_n) {
    const blas_int nc = std::min<blas_int>(block_n, n - jc);
    const blas_int n_strips = (nc + nr - 1) / nr;
    // Uniform per-(panel, component) stride sized for a full kBlockK panel
    // so addressing stays multiplicative; the last panel is just shorter.
    const std::size_t b_stride =
        static_cast<std::size_t>(n_strips) * kBlockK * nr;
    float* bpack = pack_arena::for_thread().acquire<float>(
        kArenaSlotB,
        static_cast<std::size_t>(num_pc) * ncomp * b_stride);

    for (blas_int t = 0; t < num_pc; ++t) {
      const blas_int pc = t * kBlockK;
      const blas_int kc = std::min<blas_int>(kBlockK, k - pc);
      pack_b_split(b, ldb, transb, pc, jc, kc, nc, spec,
                   bpack + static_cast<std::size_t>(t) * ncomp * b_stride,
                   b_stride, nr, /*parallel=*/true);
    }

    const blas_int ic_blocks = (m + block_m - 1) / block_m;
    const auto process_block = [&](blas_int ib) {
      const blas_int ic = ib * block_m;
      const blas_int mc = std::min<blas_int>(block_m, m - ic);
      const blas_int m_strips = (mc + mr - 1) / mr;
      const std::size_t a_stride =
          static_cast<std::size_t>(m_strips) * kBlockK * mr;
      float* apack = pack_arena::for_thread().acquire<float>(
          kArenaSlotA,
          static_cast<std::size_t>(num_pc) * ncomp * a_stride);

      for (blas_int t = 0; t < num_pc; ++t) {
        const blas_int pc = t * kBlockK;
        const blas_int kc = std::min<blas_int>(kBlockK, k - pc);
        pack_a_split(a, lda, transa, ic, pc, mc, kc, spec,
                     apack + static_cast<std::size_t>(t) * ncomp * a_stride,
                     a_stride, mr);
      }

      // Sweep order: product-major, pc-panel ascending, tiles inside —
      // every C element sees the reference op order (bit-identity), and
      // each packed (panel, component) pair stays cache-resident for its
      // whole js/is tile sweep instead of being re-streamed per tile.
      float acc[kMaxMr * kMaxNr];
      for (const auto& [pi, pj] : products) {
        for (blas_int t = 0; t < num_pc; ++t) {
          const blas_int kc = std::min<blas_int>(kBlockK, k - t * kBlockK);
          const float* ap_panel =
              apack + (static_cast<std::size_t>(t) * ncomp + pi) * a_stride;
          const float* bp_panel =
              bpack + (static_cast<std::size_t>(t) * ncomp + pj) * b_stride;
          for (blas_int js = 0; js < n_strips; ++js) {
            const blas_int j0 = jc + js * nr;
            const int cols = static_cast<int>(std::min<blas_int>(nr, n - j0));
            for (blas_int is = 0; is < m_strips; ++is) {
              const blas_int i0 = ic + is * mr;
              const int rows =
                  static_cast<int>(std::min<blas_int>(mr, m - i0));
              std::fill_n(acc, mr * nr, 0.0f);
              call_micro_kernel(desc.fn, kc,
                                ap_panel + static_cast<std::size_t>(is) *
                                               (kc * mr),
                                bp_panel + static_cast<std::size_t>(js) *
                                               (kc * nr),
                                acc);
              accumulate_tile(m, n, alpha, acc, i0, j0, rows, cols, c, ldc,
                              nr);
            }
          }
        }
      }
    };
    sched::team_parallel_for(ic_blocks, [&](long ib) { process_block(ib); });
  }
}

void gemm_at_mode(compute_mode mode, transpose transa, transpose transb,
                  blas_int m, blas_int n, blas_int k, float alpha,
                  const float* a, blas_int lda, const float* b, blas_int ldb,
                  float beta, float* c, blas_int ldc) {
  if (is_split_mode(mode)) {
#if defined(DCMESH_HAVE_AVX512BF16_KERNELS)
    // Native vdpbf16ps engine for the bf16 family when the avx512 tier is
    // active on AVX512-BF16 silicon (ULP-equivalent to the software
    // engine; see split.hpp).  TF32 modes always use the software path.
    if (split_for(mode).kind == round_kind::bf16 && bf16_native_active()) {
      sgemm_split_bf16_native(mode, transa, transb, m, n, k, alpha, a, lda,
                              b, ldb, beta, c, ldc);
      return;
    }
#endif
    sgemm_split(mode, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
                c, ldc);
  } else {
    // COMPLEX_3M has no effect on real GEMM; run standard arithmetic.
    gemm_blocked(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                 ldc);
  }
}

void gemm_at_mode(compute_mode /*mode*/, transpose transa, transpose transb,
                  blas_int m, blas_int n, blas_int k, double alpha,
                  const double* a, blas_int lda, const double* b,
                  blas_int ldb, double beta, double* c, blas_int ldc) {
  // Alternative compute modes apply to single precision only; dgemm always
  // runs standard FP64 arithmetic (paper Section IV-C: the FP64 SCF path
  // must stay exact).
  gemm_blocked(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c,
               ldc);
}

}  // namespace detail

void sgemm(transpose transa, transpose transb, blas_int m, blas_int n,
           blas_int k, float alpha, const float* a, blas_int lda,
           const float* b, blas_int ldb, float beta, float* c, blas_int ldc) {
  run(gemm_call<float>{transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
                       c, ldc});
}

void dgemm(transpose transa, transpose transb, blas_int m, blas_int n,
           blas_int k, double alpha, const double* a, blas_int lda,
           const double* b, blas_int ldb, double beta, double* c,
           blas_int ldc) {
  run(gemm_call<double>{transa, transb, m, n, k, alpha, a, lda, b, ldb,
                        beta, c, ldc});
}

void set_num_threads(int threads) { sched::set_thread_count(threads); }

int get_num_threads() { return sched::thread_count(); }

}  // namespace dcmesh::blas
