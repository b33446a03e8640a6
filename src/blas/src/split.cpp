#include "split.hpp"

#include <algorithm>

#include "gemm_kernel.hpp"

namespace dcmesh::blas::detail {
namespace {

/// Component rounding, resolved at compile time so the fused pack loops
/// pay no branch or indirect call per element.
template <round_kind K>
[[nodiscard]] inline float round_component(float x) noexcept {
  if constexpr (K == round_kind::bf16) {
    return round_to_bf16(x);
  } else {
    return round_to_tf32(x);
  }
}

/// Emit the component chain of one source element at packed offset `off`:
/// comp[c] = round(residual), residual -= comp[c] — the two-phase
/// decomposition's recurrence, fused to a single pass.
template <round_kind K>
inline void write_components(float value, int ncomp, float* dst,
                             std::size_t comp_stride,
                             std::size_t off) noexcept {
  float residual = value;
  for (int c = 0; c < ncomp; ++c) {
    const float rounded = round_component<K>(residual);
    dst[static_cast<std::size_t>(c) * comp_stride + off] = rounded;
    residual -= rounded;
  }
}

template <round_kind K>
void pack_a_split_impl(const float* a, blas_int lda, transpose op,
                       blas_int row0, blas_int col0, blas_int mc,
                       blas_int kc, int ncomp, float* dst,
                       std::size_t comp_stride, int mr) {
  const blas_int strips = (mc + mr - 1) / mr;
  for (blas_int s = 0; s < strips; ++s) {
    const std::size_t strip_off =
        static_cast<std::size_t>(s) * (static_cast<std::size_t>(kc) * mr);
    const blas_int i0 = s * mr;
    const int rows = static_cast<int>(std::min<blas_int>(mr, mc - i0));
    for (blas_int p = 0; p < kc; ++p) {
      const std::size_t col_off = strip_off + static_cast<std::size_t>(p) * mr;
      for (int i = 0; i < rows; ++i) {
        write_components<K>(op_element(a, lda, op, row0 + i0 + i, col0 + p),
                            ncomp, dst, comp_stride, col_off + i);
      }
      for (int i = rows; i < mr; ++i) {
        for (int c = 0; c < ncomp; ++c) {
          dst[static_cast<std::size_t>(c) * comp_stride + col_off + i] = 0.0f;
        }
      }
    }
  }
}

template <round_kind K>
void pack_b_split_impl(const float* b, blas_int ldb, transpose op,
                       blas_int row0, blas_int col0, blas_int kc,
                       blas_int nc, int ncomp, float* dst,
                       std::size_t comp_stride, int nr, bool parallel) {
  const blas_int strips = (nc + nr - 1) / nr;
  const auto pack_strip = [&](long s) {
    const std::size_t strip_off =
        static_cast<std::size_t>(s) * (static_cast<std::size_t>(kc) * nr);
    const blas_int j0 = static_cast<blas_int>(s) * nr;
    const int cols = static_cast<int>(std::min<blas_int>(nr, nc - j0));
    for (blas_int p = 0; p < kc; ++p) {
      const std::size_t row_off = strip_off + static_cast<std::size_t>(p) * nr;
      for (int j = 0; j < cols; ++j) {
        write_components<K>(op_element(b, ldb, op, row0 + p, col0 + j0 + j),
                            ncomp, dst, comp_stride, row_off + j);
      }
      for (int j = cols; j < nr; ++j) {
        for (int c = 0; c < ncomp; ++c) {
          dst[static_cast<std::size_t>(c) * comp_stride + row_off + j] = 0.0f;
        }
      }
    }
  };
  if (parallel &&
      ncomp * kc * nc >= pack_parallel_min_elems(active_kernel_isa())) {
    sched::team_parallel_for(strips, pack_strip);
  } else {
    for (blas_int s = 0; s < strips; ++s) pack_strip(s);
  }
}

}  // namespace

void pack_a_split(const float* a, blas_int lda, transpose op, blas_int row0,
                  blas_int col0, blas_int mc, blas_int kc,
                  const split_spec& spec, float* dst,
                  std::size_t comp_stride, int mr) {
  if (spec.kind == round_kind::bf16) {
    pack_a_split_impl<round_kind::bf16>(a, lda, op, row0, col0, mc, kc,
                                        spec.components, dst, comp_stride,
                                        mr);
  } else {
    pack_a_split_impl<round_kind::tf32>(a, lda, op, row0, col0, mc, kc,
                                        spec.components, dst, comp_stride,
                                        mr);
  }
}

void pack_b_split(const float* b, blas_int ldb, transpose op, blas_int row0,
                  blas_int col0, blas_int kc, blas_int nc,
                  const split_spec& spec, float* dst,
                  std::size_t comp_stride, int nr, bool parallel) {
  if (spec.kind == round_kind::bf16) {
    pack_b_split_impl<round_kind::bf16>(b, ldb, op, row0, col0, kc, nc,
                                        spec.components, dst, comp_stride,
                                        nr, parallel);
  } else {
    pack_b_split_impl<round_kind::tf32>(b, ldb, op, row0, col0, kc, nc,
                                        spec.components, dst, comp_stride,
                                        nr, parallel);
  }
}

std::span<const std::pair<int, int>> retained_products(
    int components) noexcept {
  static constexpr std::pair<int, int> kPairs[] = {
      {0, 0}, {0, 1}, {1, 0}, {0, 2}, {1, 1}, {2, 0}};
  const int n = std::clamp(components, 0, 3);
  return {kPairs, static_cast<std::size_t>(n * (n + 1) / 2)};
}

}  // namespace dcmesh::blas::detail
