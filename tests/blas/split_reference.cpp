#include "split_reference.hpp"

#include "gemm_kernel.hpp"  // internal header (src/blas/src)

namespace dcmesh::blas::detail {

std::vector<matrix<float>> split_operand(const float* x, blas_int rows,
                                         blas_int cols, blas_int ld,
                                         split_spec spec) {
  std::vector<matrix<float>> components;
  components.reserve(static_cast<std::size_t>(spec.components));

  // residual starts as the exact input and loses one component per pass.
  matrix<float> residual(static_cast<std::size_t>(rows),
                         static_cast<std::size_t>(cols));
  for (blas_int j = 0; j < cols; ++j) {
    const float* src = x + j * ld;
    float* dst = residual.data() + j * rows;
    for (blas_int i = 0; i < rows; ++i) dst[i] = src[i];
  }

  for (int c = 0; c < spec.components; ++c) {
    matrix<float> comp(static_cast<std::size_t>(rows),
                       static_cast<std::size_t>(cols));
    float* comp_data = comp.data();
    float* res_data = residual.data();
    const std::size_t count = comp.size();
    const bool last = (c + 1 == spec.components);
    for (std::size_t i = 0; i < count; ++i) {
      const float rounded = spec.kind == round_kind::bf16
                                ? round_to_bf16(res_data[i])
                                : round_to_tf32(res_data[i]);
      comp_data[i] = rounded;
      if (!last) res_data[i] -= rounded;
    }
    components.push_back(std::move(comp));
  }
  return components;
}

void sgemm_split_reference(compute_mode mode, transpose transa,
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
  const blas_int rows_a = transa == transpose::none ? m : k;
  const blas_int cols_a = transa == transpose::none ? k : m;
  const blas_int rows_b = transb == transpose::none ? k : n;
  const blas_int cols_b = transb == transpose::none ? n : k;

  const auto a_comp = split_operand(a, rows_a, cols_a, lda, spec);
  const auto b_comp = split_operand(b, rows_b, cols_b, ldb, spec);

  for (const auto& [i, j] : retained_products(spec.components)) {
    gemm_blocked_accumulate(transa, transb, m, n, k, alpha,
                            a_comp[static_cast<std::size_t>(i)].data(),
                            rows_a,
                            b_comp[static_cast<std::size_t>(j)].data(),
                            rows_b, c, ldc);
  }
}

}  // namespace dcmesh::blas::detail
