#pragma once
// complex_reference.hpp — the plane-by-plane complex GEMM, kept as a test
// oracle.
//
// Before the fused complex engine, a CGEMM/ZGEMM extracted dense real and
// imaginary planes of both operands and ran each real plane product as
// its own blocked GEMM (four under standard arithmetic, three under
// COMPLEX_3M, split modes applied to each product).  The fused engine
// must stay bit-identical to that arithmetic under every mode and kernel
// ISA; these definitions are the other side of that comparison and are
// compiled into test_blas only.  Both sides end in the library's one
// complex epilogue (combine_planes), whose FMA contraction would
// otherwise differ between translation units.

#include <complex>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/compute_mode.hpp"

namespace dcmesh::blas::detail {

/// C <- alpha*op(A)*op(B) + beta*C through dense planes and one blocked
/// real GEMM per plane product, with the engine's mode mapping (3M, or
/// 4M with split modes on the products).
void complex_gemm_reference(compute_mode mode, transpose transa,
                            transpose transb, blas_int m, blas_int n,
                            blas_int k, std::complex<float> alpha,
                            const std::complex<float>* a, blas_int lda,
                            const std::complex<float>* b, blas_int ldb,
                            std::complex<float> beta, std::complex<float>* c,
                            blas_int ldc);

/// The same for double precision, where split modes do not apply.
void complex_gemm_reference(compute_mode mode, transpose transa,
                            transpose transb, blas_int m, blas_int n,
                            blas_int k, std::complex<double> alpha,
                            const std::complex<double>* a, blas_int lda,
                            const std::complex<double>* b, blas_int ldb,
                            std::complex<double> beta,
                            std::complex<double>* c, blas_int ldc);

}  // namespace dcmesh::blas::detail
