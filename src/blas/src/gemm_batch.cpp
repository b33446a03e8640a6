#include "dcmesh/blas/gemm_batch.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

#include "dcmesh/blas/gemm_call.hpp"
#include "dcmesh/blas/verbose.hpp"
#include "dispatch_internal.hpp"

namespace dcmesh::blas {

template <typename T>
void gemm_batch_strided(transpose transa, transpose transb, blas_int m,
                        blas_int n, blas_int k, T alpha, const T* a,
                        blas_int lda, blas_int stride_a, const T* b,
                        blas_int ldb, blas_int stride_b, T beta, T* c,
                        blas_int ldc, blas_int stride_c, blas_int batch,
                        std::string_view call_site) {
  if (batch < 0) throw std::invalid_argument("gemm_batch: negative batch");
  // Each batch entry dispatches like a standalone gemm, so under a split
  // mode every entry runs the fused pack-once engine; the per-thread
  // arena makes the loop allocation-free after the first entry (slots are
  // released between entries — see pack_arena.hpp lifetime rules).
  // Footprint checks: a stride of 0 shares the operand across the batch
  // (legal for inputs); output slots must not overlap.
  const blas_int cols_a = transa == transpose::none ? k : m;
  const blas_int cols_b = transb == transpose::none ? n : k;
  if (batch > 1) {
    if (stride_a != 0 && stride_a < lda * cols_a) {
      throw std::invalid_argument("gemm_batch: stride_a overlaps");
    }
    if (stride_b != 0 && stride_b < ldb * cols_b) {
      throw std::invalid_argument("gemm_batch: stride_b overlaps");
    }
    if (stride_c < ldc * n && m > 0 && n > 0) {
      throw std::invalid_argument("gemm_batch: stride_c overlaps");
    }
  }
  // Each problem is one descriptor through the common dispatcher, but the
  // whole batch shares ONE resolution: the per-site policy — and, for an
  // AUTO rule, the autotuner — is consulted once per batched call, since
  // every problem has the same site and shape.  Each problem still gets
  // its own verbose record (mirroring how MKL_VERBOSE reports batched
  // calls), so the metrics registry accumulates batch x 2mnk flops.
  gemm_call<T> call;
  call.transa = transa;
  call.transb = transb;
  call.m = m;
  call.n = n;
  call.k = k;
  call.alpha = alpha;
  call.lda = lda;
  call.ldb = ldb;
  call.beta = beta;
  call.ldc = ldc;
  call.call_site = call_site;
  const detail::call_plan plan = detail::plan_call(call);

  // The whole batch is one span (batch-total flops, so timeline
  // throughput stays truthful); its elements emit none.
  const auto start = std::chrono::steady_clock::now();
  call_record summary;
  for (blas_int i = 0; i < batch; ++i) {
    call.a = a + i * stride_a;
    call.b = b + i * stride_b;
    call.c = c + i * stride_c;
    call_record element = detail::run_planned(call, plan);
    element.batch = batch;
    if (i == 0) summary = element;
    record_call(std::move(element));
  }
  if (batch == 0) return;
  summary.start = start;
  summary.stop_clock();
  summary.flops *= static_cast<double>(batch);
  detail::record_batch(summary);
}

#define DCMESH_INSTANTIATE_GEMM_BATCH(T)                                   \
  template void gemm_batch_strided<T>(                                    \
      transpose, transpose, blas_int, blas_int, blas_int, T, const T*,    \
      blas_int, blas_int, const T*, blas_int, blas_int, T, T*, blas_int,  \
      blas_int, blas_int, std::string_view);

DCMESH_INSTANTIATE_GEMM_BATCH(float)
DCMESH_INSTANTIATE_GEMM_BATCH(double)
DCMESH_INSTANTIATE_GEMM_BATCH(std::complex<float>)
DCMESH_INSTANTIATE_GEMM_BATCH(std::complex<double>)
#undef DCMESH_INSTANTIATE_GEMM_BATCH

}  // namespace dcmesh::blas
