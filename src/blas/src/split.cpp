#include "split.hpp"

#include <algorithm>

#include "gemm_kernel.hpp"

namespace dcmesh::blas::detail {
namespace {

/// Component rounding, resolved at compile time so the split loop pays
/// no branch or indirect call per element.
template <round_kind K>
[[nodiscard]] inline float round_component(float x) noexcept {
  if constexpr (K == round_kind::bf16) {
    return round_to_bf16(x);
  } else {
    return round_to_tf32(x);
  }
}

/// The two-phase decomposition's recurrence, comp[c] = round(residual),
/// residual -= comp[c], over a packed slab.  The component count is fixed
/// at compile time and the component slabs are disjoint (comp_stride >=
/// count), so the loop vectorizes; each element's chain is unchanged.
template <round_kind K, int N>
void split_packed_impl(float* slab, std::size_t count,
                       std::size_t comp_stride) {
  float* __restrict comp[N];
  for (int c = 0; c < N; ++c) comp[c] = slab + c * comp_stride;
  for (std::size_t i = 0; i < count; ++i) {
    float residual = comp[0][i];
    for (int c = 0; c < N; ++c) {
      const float rounded = round_component<K>(residual);
      comp[c][i] = rounded;
      residual -= rounded;
    }
  }
}

template <round_kind K>
void split_packed_kind(float* slab, std::size_t count, int ncomp,
                       std::size_t comp_stride) {
  switch (ncomp) {
    case 1:
      split_packed_impl<K, 1>(slab, count, comp_stride);
      break;
    case 2:
      split_packed_impl<K, 2>(slab, count, comp_stride);
      break;
    default:
      split_packed_impl<K, 3>(slab, count, comp_stride);
      break;
  }
}

}  // namespace

void split_packed(float* slab, std::size_t count, const split_spec& spec,
                  std::size_t comp_stride) {
  if (spec.kind == round_kind::bf16) {
    split_packed_kind<round_kind::bf16>(slab, count, spec.components,
                                        comp_stride);
  } else {
    split_packed_kind<round_kind::tf32>(slab, count, spec.components,
                                        comp_stride);
  }
}

void pack_a_split(const float* a, blas_int lda, transpose op, blas_int row0,
                  blas_int col0, blas_int mc, blas_int kc,
                  const split_spec& spec, float* dst,
                  std::size_t comp_stride, int mr) {
  pack_a(a, lda, op, row0, col0, mc, kc, dst, mr);
  split_packed(dst, static_cast<std::size_t>((mc + mr - 1) / mr) * kc * mr,
               spec, comp_stride);
}

void pack_b_split(const float* b, blas_int ldb, transpose op, blas_int row0,
                  blas_int col0, blas_int kc, blas_int nc,
                  const split_spec& spec, float* dst,
                  std::size_t comp_stride, int nr, bool parallel) {
  const blas_int strips = (nc + nr - 1) / nr;
  const std::size_t strip_size = static_cast<std::size_t>(kc) * nr;
  // Strip s is the one-strip panel at columns [s * nr, s * nr + nr).
  const auto pack_strip = [&](long s) {
    const blas_int j0 = static_cast<blas_int>(s) * nr;
    float* strip = dst + s * strip_size;
    pack_b(b, ldb, op, row0, col0 + j0, kc, std::min<blas_int>(nr, nc - j0),
           strip, nr);
    split_packed(strip, strip_size, spec, comp_stride);
  };
  if (parallel && spec.components * kc * nc >=
                      pack_parallel_min_elems(active_kernel_isa())) {
    sched::team_parallel_for(strips, [&](long s) { pack_strip(s); });
  } else {
    for (blas_int s = 0; s < strips; ++s) pack_strip(s);
  }
}

}  // namespace dcmesh::blas::detail
