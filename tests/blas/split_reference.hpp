#pragma once
// split_reference.hpp — the two-phase split GEMM, kept as a test oracle.
//
// Before the fused engine, a FLOAT_TO_* sgemm materialised each operand's
// components as dense matrices and ran one blocked pass per retained
// product.  The fused engine (sgemm_split) must stay bit-identical to that
// arithmetic under every kernel ISA; these definitions are the other side
// of that comparison and are compiled into test_blas only.

#include <vector>

#include "dcmesh/common/matrix.hpp"
#include "split.hpp"  // internal header (src/blas/src)

namespace dcmesh::blas::detail {

/// Decompose a column-major rows x cols operand (leading dimension ld) into
/// `spec.components` dense component matrices: comp[0] = round(x),
/// comp[c] = round(x - comp[0] - ... - comp[c-1]).  The sum of components
/// converges to x with ~7 extra mantissa bits per BF16 component.
[[nodiscard]] std::vector<matrix<float>> split_operand(
    const float* x, blas_int rows, blas_int cols, blas_int ld,
    split_spec spec);

/// Split GEMM from dense split_operand copies plus one blocked pass per
/// retained product.  Bit-identical to sgemm_split under any kernel ISA.
void sgemm_split_reference(compute_mode mode, transpose transa,
                           transpose transb, blas_int m, blas_int n,
                           blas_int k, float alpha, const float* a,
                           blas_int lda, const float* b, blas_int ldb,
                           float beta, float* c, blas_int ldc);

}  // namespace dcmesh::blas::detail
