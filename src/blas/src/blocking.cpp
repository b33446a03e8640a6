#include "blocking.hpp"

#include <algorithm>

namespace dcmesh::blas::detail {
namespace {

thread_local gemm_blocking t_override{0, 0};
thread_local bool t_override_active = false;

[[nodiscard]] blas_int round_to_quantum(blas_int value, blas_int quantum,
                                        blas_int max) noexcept {
  // Round to the NEAREST multiple (ties up) so a tuned value round-trips
  // through legalization unchanged and a probe grid stays monotone.
  const blas_int units =
      std::max<blas_int>(1, (value + quantum / 2) / quantum);
  return std::min<blas_int>(units * quantum, (max / quantum) * quantum);
}

}  // namespace

blas_int blocking_row_quantum(kernel_isa isa) noexcept {
  // lcm over the f32, f64 and complex-plane MR per tier.
  return isa == kernel_isa::avx512 ? 56 : 12;
}

blas_int blocking_col_quantum(kernel_isa isa) noexcept {
  // lcm over the f32, f64 and complex-plane NR per tier.
  return isa == kernel_isa::avx512 ? 32 : 16;
}

gemm_blocking default_blocking(kernel_isa isa) noexcept {
  // scalar/avx2 keep the historical kBlockM=72/kBlockN=512; the avx512
  // tiles are 14 rows tall, so MC grows to the nearest taller quantum
  // multiple (2 x 56 = 112 rows, 8 f32 strips per block).
  return isa == kernel_isa::avx512 ? gemm_blocking{112, 512}
                                   : gemm_blocking{72, 512};
}

gemm_blocking legalize_blocking(kernel_isa isa, blas_int mc,
                                blas_int nc) noexcept {
  const gemm_blocking dflt = default_blocking(isa);
  if (mc <= 0) mc = dflt.mc;
  if (nc <= 0) nc = dflt.nc;
  return {round_to_quantum(mc, blocking_row_quantum(isa), kMaxBlockM),
          round_to_quantum(nc, blocking_col_quantum(isa), kMaxBlockN)};
}

gemm_blocking effective_blocking() noexcept {
  if (t_override_active) return t_override;
  return default_blocking(active_kernel_isa());
}

scoped_blocking::scoped_blocking(blas_int mc, blas_int nc) noexcept {
  if (mc <= 0 && nc <= 0) return;
  prev_ = t_override;
  prev_active_ = t_override_active;
  t_override = legalize_blocking(active_kernel_isa(), mc, nc);
  t_override_active = true;
  engaged_ = true;
}

scoped_blocking::~scoped_blocking() {
  if (!engaged_) return;
  t_override = prev_;
  t_override_active = prev_active_;
}

}  // namespace dcmesh::blas::detail
