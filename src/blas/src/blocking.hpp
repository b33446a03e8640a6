#pragma once
// blocking.hpp — runtime MC/NC cache-blocking resolution (internal).
//
// The blocked core's Goto blocking used to be three compile-time
// constants; MC and NC are now per-call runtime values so the autotuner
// can persist per-shape winners in the wisdom store.  KC stays the
// compile-time kBlockK constant: it partitions the accumulation and is
// part of the golden-trajectory numerical contract, while MC/NC only
// partition the *output* — every C element's accumulation chain is
// identical under any legal MC/NC, which is what makes retuned
// blockings bit-identical (locked by test) and therefore safe to apply
// from a cache without revalidating numerics.
//
// Legal blockings are multiples of the per-tier tile quanta (the lcm of
// every element type's MR for rows, NR for columns) so interior blocks
// keep each type's packed strips exactly full.  The per-call override is
// thread-local and scoped: the dispatcher installs the planned blocking
// around the whole guarded run so re-runs and health-scan repeats see
// the same partition, and resolves it ONCE on the calling thread —
// worker-team threads never consult it.

#include <optional>

#include "dcmesh/blas/blas.hpp"
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
/// NR (columns), the complex engine's plane tiles included (4 rows; 8
/// float or 4 double columns).  scalar+avx2 tiles (6,4,4)x(16,8,8,4) ->
/// 12 x 16; avx512 tiles (14,8,4)x(32,16,8,4) -> 56 x 32.
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
