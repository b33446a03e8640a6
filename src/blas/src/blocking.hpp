#pragma once
// blocking.hpp — MC/NC cache-blocking resolution (internal).
//
// KC is the compile-time kBlockK constant: it partitions the accumulation
// and is part of the golden-trajectory numerical contract.  MC and NC
// only partition the *output* — every C element's accumulation chain is
// identical under any legal MC/NC — so they are free: each call takes
// the kernel tier's default and blocking_for_team narrows MC for the
// team, without changing a bit.
//
// Legal blockings are multiples of the per-tier tile quanta (the lcm of
// every element type's MR for rows, NR for columns) so interior blocks
// keep each type's packed strips exactly full.  scoped_blocking installs
// a thread-local override of the default; it is the seam through which
// tests pin MC/NC and check that any legal blocking gives the same bits.
// Engines resolve the blocking once, on the calling thread; worker-team
// threads never consult the override.

#include <optional>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/sched/config.hpp"
#include "kernel_isa.hpp"

namespace dcmesh::blas::detail {

/// One MC/NC choice (elements).  KC is always kBlockK.
struct gemm_blocking {
  blas_int mc;
  blas_int nc;
  friend bool operator==(const gemm_blocking& a,
                         const gemm_blocking& b) noexcept {
    return a.mc == b.mc && a.nc == b.nc;
  }
};

/// Row/column quanta per tier: lcm of every element type's MR (rows) /
/// NR (columns), the complex engine's plane tiles included (kComplexMr:
/// 8 float or 4 double rows; kComplexNr = 8 columns).  scalar+avx2 tiles
/// (6,4,8,4)x(16,8,8) -> 24 x 16; avx512 tiles (14,8,8,4)x(32,16,8) ->
/// 56 x 32.
[[nodiscard]] blas_int blocking_row_quantum(kernel_isa isa) noexcept;
[[nodiscard]] blas_int blocking_col_quantum(kernel_isa isa) noexcept;

/// The tier's default blocking (the historical kBlockM/kBlockN for
/// scalar and avx2; a taller MC for the avx512 tiles).
[[nodiscard]] gemm_blocking default_blocking(kernel_isa isa) noexcept;

/// Round an arbitrary request to the nearest legal blocking for `isa`:
/// quantum multiples, clamped to [1 quantum, kMaxBlockM/kMaxBlockN].
/// Non-positive requests resolve to the tier default.
inline constexpr blas_int kMaxBlockM = 2048;
inline constexpr blas_int kMaxBlockN = 8192;
[[nodiscard]] gemm_blocking legalize_blocking(kernel_isa isa, blas_int mc,
                                              blas_int nc) noexcept;

/// The blocking the current call should use: the innermost active scoped
/// override on this thread, else the active tier's default.  Resolve
/// once per GEMM call, on the calling thread.
[[nodiscard]] gemm_blocking effective_blocking() noexcept;

/// Calls of at most this many multiply-adds are too small to share: the
/// complex engine runs them as one block on the calling thread, and no
/// engine narrows its blocking for the team below it.
inline constexpr double kSmallMacs = 1 << 18;

/// The blocking an m-row call of `macs` multiply-adds shares across a
/// team of `team` threads, for an engine of mr-row tiles.  Above
/// kSmallMacs, a call with fewer row blocks than members gets MC narrowed
/// to whole MR strips, so each member gets about the same rows; NC is
/// kept.  It only ever narrows `blk`: every C element keeps its
/// accumulation chain, so the partition changes no bits.
[[nodiscard]] gemm_blocking blocking_for_team(gemm_blocking blk, blas_int m,
                                              double macs, int mr,
                                              int team) noexcept;

/// The same on the calling thread's kernel team (sched::team_size(),
/// asked only above kSmallMacs).  Resolve once per call, on the calling
/// thread.
[[nodiscard]] inline gemm_blocking blocking_for_team(gemm_blocking blk,
                                                     blas_int m, double macs,
                                                     int mr) {
  if (macs <= kSmallMacs) return blk;
  return blocking_for_team(blk, m, macs, mr, sched::team_size());
}

/// Install a thread-local blocking override for the lifetime of the
/// scope.  Requests are legalized against the active tier; {0, 0} (or
/// any non-positive pair) is a no-op scope that keeps the default.
class scoped_blocking {
 public:
  scoped_blocking(blas_int mc, blas_int nc) noexcept;
  ~scoped_blocking();
  scoped_blocking(const scoped_blocking&) = delete;
  scoped_blocking& operator=(const scoped_blocking&) = delete;

 private:
  gemm_blocking prev_{0, 0};
  bool prev_active_ = false;
  bool engaged_ = false;
};

}  // namespace dcmesh::blas::detail
