#pragma once
// gemm_kernel.hpp — internal cache-blocked real GEMM (float and double).
//
// Classic three-level blocking (Goto-style): B is packed into NR-wide
// column strips per (jc, pc) panel, A into MR-tall row strips per (ic, pc)
// block, and a register-tiled microkernel (microkernel.hpp; explicit
// AVX2+FMA for float/double behind runtime dispatch, scalar otherwise)
// accumulates an MR x NR tile over the packed K dimension.  Edge tiles are
// zero-padded in the packed buffers so the microkernel never branches.
// Packed panels live in the per-thread pack_arena — the hot path performs
// no heap allocation after warmup.  The ic loop runs on the scheduler's
// worker team; large B panels are packed in parallel as well.

#include <algorithm>
#include <cassert>
#include <complex>
#include <stdexcept>
#include <type_traits>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/sched/config.hpp"
#include "blocking.hpp"
#include "microkernel.hpp"
#include "pack_arena.hpp"

namespace dcmesh::blas::detail {

/// The K cache-block (elements).  kBlockK partitions the accumulation —
/// each C element is produced by one microkernel call per kBlockK slice,
/// in pc-ascending order — so it is part of the golden-trajectory
/// numerical contract and stays a compile-time constant.  MC and NC only
/// partition the *output*: any legal choice yields bit-identical C, so
/// they are runtime values resolved per call through blocking.hpp
/// (tier defaults, or a tuned override planned by the dispatcher).
inline constexpr blas_int kBlockK = 256;

/// Parallel-pack crossover, per ISA tier (measured Release,
/// -march=native, see DESIGN §9).  Handing a pack to the worker team
/// costs on the order of a microsecond; a panel is only worth sharing
/// once its serial pack time clears that by a healthy margin.  The
/// avx512 tier's ZMM pack loop moves roughly twice the bytes per cycle,
/// so its break-even sits at twice the elements.
[[nodiscard]] inline blas_int pack_parallel_min_elems(
    kernel_isa isa) noexcept {
  return isa == kernel_isa::avx512 ? 65536 : 32768;
}

template <typename T>
[[nodiscard]] constexpr T conj_if(T value, bool do_conj) noexcept {
  if constexpr (std::is_floating_point_v<T>) {
    (void)do_conj;
    return value;
  } else {
    return do_conj ? std::conj(value) : value;
  }
}

/// Element (r, c) of op(X) where X is column-major with leading dim ld.
template <typename T>
[[nodiscard]] inline T op_element(const T* x, blas_int ld, transpose op,
                                  blas_int r, blas_int c) noexcept {
  if (op == transpose::none) return x[r + c * ld];
  return conj_if(x[c + r * ld], op == transpose::conj_trans);
}

/// Scale C by beta in place (beta == 0 overwrites, killing NaNs/Infs, as
/// BLAS requires).
template <typename T>
void scale_c(blas_int m, blas_int n, T beta, T* c, blas_int ldc) {
  if (beta == T(1)) return;
  if (beta == T(0)) {
    for (blas_int j = 0; j < n; ++j) {
      std::fill_n(c + j * ldc, m, T(0));
    }
    return;
  }
  for (blas_int j = 0; j < n; ++j) {
    T* col = c + j * ldc;
    for (blas_int i = 0; i < m; ++i) col[i] *= beta;
  }
}

/// Pack an mc x kc block of op(A) into MR-tall strips, zero-padded to a
/// multiple of MR rows.  Strip layout: strip s holds kc "columns" of MR
/// contiguous elements.  Every packed element is written, so arena memory
/// needs no pre-zeroing.  `mr` comes from the resolved kernel_desc — the
/// avx512 tier packs taller strips than the baseline micro_tile.
template <typename T>
void pack_a(const T* a, blas_int lda, transpose op, blas_int row0,
            blas_int col0, blas_int mc, blas_int kc, T* packed, int mr) {
  const blas_int strips = (mc + mr - 1) / mr;
  for (blas_int s = 0; s < strips; ++s) {
    T* dst = packed + s * (kc * mr);
    const blas_int i0 = s * mr;
    const int rows = static_cast<int>(std::min<blas_int>(mr, mc - i0));
    for (blas_int p = 0; p < kc; ++p) {
      for (int i = 0; i < rows; ++i) {
        dst[p * mr + i] = op_element(a, lda, op, row0 + i0 + i, col0 + p);
      }
      for (int i = rows; i < mr; ++i) dst[p * mr + i] = T(0);
    }
  }
}

/// Pack a kc x nc panel of op(B) into NR-wide strips, zero-padded to a
/// multiple of NR columns.  With `parallel`, strips are packed by the
/// scheduler's worker team once the panel clears the fork-cost
/// crossover (strips are disjoint, so the packed bytes are identical no
/// matter which thread packs which strip).
template <typename T>
void pack_b(const T* b, blas_int ldb, transpose op, blas_int row0,
            blas_int col0, blas_int kc, blas_int nc, T* packed, int nr,
            bool parallel = false) {
  const blas_int strips = (nc + nr - 1) / nr;
  const auto pack_strip = [&](blas_int s) {
    T* dst = packed + s * (kc * nr);
    const blas_int j0 = s * nr;
    const int cols = static_cast<int>(std::min<blas_int>(nr, nc - j0));
    for (blas_int p = 0; p < kc; ++p) {
      for (int j = 0; j < cols; ++j) {
        dst[p * nr + j] = op_element(b, ldb, op, row0 + p, col0 + j0 + j);
      }
      for (int j = cols; j < nr; ++j) dst[p * nr + j] = T(0);
    }
  };
  if (parallel && kc * nc >= pack_parallel_min_elems(active_kernel_isa())) {
    sched::team_parallel_for(strips, [&](long s) { pack_strip(s); });
  } else {
    for (blas_int s = 0; s < strips; ++s) pack_strip(s);
  }
}

/// Add alpha * acc (an MR x NR tile, rows x cols valid) into C at (i0, j0).
/// Shared by the standard and fused split paths — the epilogue is part of
/// the bit-level contract (one rounding per C update).
template <typename T>
inline void accumulate_tile(blas_int m, blas_int n, T alpha, const T* acc,
                            blas_int i0, blas_int j0, int rows, int cols,
                            T* c, blas_int ldc, int nr) noexcept {
  (void)m;
  (void)n;
  for (int j = 0; j < cols; ++j) {
    T* col = c + i0 + (j0 + j) * ldc;
    for (int i = 0; i < rows; ++i) {
      col[i] += alpha * acc[i * nr + j];
    }
  }
}

/// Validate the standard GEMM argument contract; throws std::invalid_argument
/// on a malformed call (negative dims, too-small leading dimensions).
/// A and B may be null when they will not be referenced (k == 0 or
/// alpha == 0), per the BLAS contract — pass needs_ab accordingly.
template <typename T>
void validate_gemm_args(transpose transa, transpose transb, blas_int m,
                        blas_int n, blas_int k, const T* a, blas_int lda,
                        const T* b, blas_int ldb, const T* c, blas_int ldc,
                        bool needs_ab = true) {
  if (m < 0 || n < 0 || k < 0) {
    throw std::invalid_argument("gemm: negative dimension");
  }
  const blas_int rows_a = transa == transpose::none ? m : k;
  const blas_int rows_b = transb == transpose::none ? k : n;
  if (lda < std::max<blas_int>(1, rows_a)) {
    throw std::invalid_argument("gemm: lda too small");
  }
  if (ldb < std::max<blas_int>(1, rows_b)) {
    throw std::invalid_argument("gemm: ldb too small");
  }
  if (ldc < std::max<blas_int>(1, m)) {
    throw std::invalid_argument("gemm: ldc too small");
  }
  if (m != 0 && n != 0) {
    if (c == nullptr) throw std::invalid_argument("gemm: null C");
    if (needs_ab && k != 0 && (a == nullptr || b == nullptr)) {
      throw std::invalid_argument("gemm: null A or B");
    }
  }
}

/// The blocked GEMM core: C += alpha * op(A) * op(B), assuming C has already
/// been scaled by beta.  Never reads the compute mode — every mode's
/// component products funnel through this routine (the fused split engine
/// in gemm_real.cpp shares its packing layout, microkernel, and epilogue).
template <typename T>
void gemm_blocked_accumulate(transpose transa, transpose transb, blas_int m,
                             blas_int n, blas_int k, T alpha, const T* a,
                             blas_int lda, const T* b, blas_int ldb, T* c,
                             blas_int ldc) {
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;

  // Resolved ONCE, on the calling thread: kernel + tile shape from the
  // active ISA, MC/NC from the scoped override (the dispatcher's planned
  // blocking) or the tier default.
  const kernel_desc<T> desc = select_kernel_desc<T>();
  const int mr = desc.mr;
  const int nr = desc.nr;
  const gemm_blocking blk = effective_blocking();
  const blas_int block_m = blk.mc;
  const blas_int block_n = blk.nc;

  for (blas_int jc = 0; jc < n; jc += block_n) {
    const blas_int nc = std::min<blas_int>(block_n, n - jc);
    const blas_int n_strips = (nc + nr - 1) / nr;
    for (blas_int pc = 0; pc < k; pc += kBlockK) {
      const blas_int kc = std::min<blas_int>(kBlockK, k - pc);
      T* bp = pack_arena::for_thread().template acquire<T>(
          kArenaSlotB, static_cast<std::size_t>(n_strips) * kc * nr);
      pack_b(b, ldb, transb, pc, jc, kc, nc, bp, nr, /*parallel=*/true);

      const blas_int ic_blocks = (m + block_m - 1) / block_m;
      const auto process_block = [&](blas_int ib) {
        const blas_int ic = ib * block_m;
        const blas_int mc = std::min<blas_int>(block_m, m - ic);
        const blas_int m_strips = (mc + mr - 1) / mr;
        T* ap = pack_arena::for_thread().template acquire<T>(
            kArenaSlotA, static_cast<std::size_t>(m_strips) * kc * mr);
        pack_a(a, lda, transa, ic, pc, mc, kc, ap, mr);

        T acc[kMaxMr * kMaxNr];
        for (blas_int js = 0; js < n_strips; ++js) {
          const blas_int j0 = jc + js * nr;
          const int cols = static_cast<int>(std::min<blas_int>(nr, n - j0));
          for (blas_int is = 0; is < m_strips; ++is) {
            const blas_int i0 = ic + is * mr;
            const int rows = static_cast<int>(std::min<blas_int>(mr, m - i0));
            std::fill_n(acc, mr * nr, T(0));
            call_micro_kernel(desc.fn, kc, ap + is * (kc * mr),
                              bp + js * (kc * nr), acc);
            accumulate_tile(m, n, alpha, acc, i0, j0, rows, cols, c, ldc,
                            nr);
          }
        }
      };
      // The ic sweep runs on the scheduler's worker team (one contiguous
      // run of blocks per member), sharing its threads with the graph.
      sched::team_parallel_for(ic_blocks, [&](long ib) { process_block(ib); });
    }
  }
}

/// Full standard-arithmetic GEMM: C <- alpha*op(A)*op(B) + beta*C.
template <typename T>
void gemm_blocked(transpose transa, transpose transb, blas_int m, blas_int n,
                  blas_int k, T alpha, const T* a, blas_int lda, const T* b,
                  blas_int ldb, T beta, T* c, blas_int ldc) {
  validate_gemm_args(transa, transb, m, n, k, a, lda, b, ldb, c, ldc,
                     /*needs_ab=*/alpha != T(0));
  if (m == 0 || n == 0) return;
  scale_c(m, n, beta, c, ldc);
  gemm_blocked_accumulate(transa, transb, m, n, k, alpha, a, lda, b, ldb, c,
                          ldc);
}

}  // namespace dcmesh::blas::detail
