#include "complex_reference.hpp"

#include <utility>

#include "dcmesh/common/matrix.hpp"
#include "complex_kernel.hpp"  // internal headers (src/blas/src)
#include "gemm_kernel.hpp"
#include "split.hpp"

namespace dcmesh::blas::detail {
namespace {

/// Real-arithmetic transpose op corresponding to a complex op once
/// conjugation has been folded into the extracted imaginary plane.
constexpr transpose real_op(transpose op) noexcept {
  return op == transpose::none ? transpose::none : transpose::trans;
}

/// Extract the real and imaginary planes of a stored complex operand.
/// `negate_imag` folds a conjugate-transpose into the extraction.
template <typename R>
std::pair<matrix<R>, matrix<R>> extract_planes(const std::complex<R>* x,
                                               blas_int rows, blas_int cols,
                                               blas_int ld, bool negate_imag) {
  matrix<R> re(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  matrix<R> im(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  for (blas_int j = 0; j < cols; ++j) {
    const std::complex<R>* src = x + j * ld;
    R* re_col = re.data() + j * rows;
    R* im_col = im.data() + j * rows;
    if (negate_imag) {
      for (blas_int i = 0; i < rows; ++i) {
        re_col[i] = src[i].real();
        im_col[i] = -src[i].imag();
      }
    } else {
      for (blas_int i = 0; i < rows; ++i) {
        re_col[i] = src[i].real();
        im_col[i] = src[i].imag();
      }
    }
  }
  return {std::move(re), std::move(im)};
}

/// 4M complex GEMM over extracted planes: the standard complex algorithm
/// expressed as four real products (real-plane GEMMs vectorize far better
/// than a complex microkernel, and this is also how the XMX hardware path
/// consumes complex data).
template <typename R>
void gemm_4m(transpose transa, transpose transb,
             blas_int m, blas_int n, blas_int k, std::complex<R> alpha,
             const std::complex<R>* a, blas_int lda,
             const std::complex<R>* b, blas_int ldb, std::complex<R> beta,
             std::complex<R>* c, blas_int ldc) {
  const blas_int rows_a = transa == transpose::none ? m : k;
  const blas_int cols_a = transa == transpose::none ? k : m;
  const blas_int rows_b = transb == transpose::none ? k : n;
  const blas_int cols_b = transb == transpose::none ? n : k;

  auto [ar, ai] = extract_planes(a, rows_a, cols_a, lda,
                                 transa == transpose::conj_trans);
  auto [br, bi] = extract_planes(b, rows_b, cols_b, ldb,
                                 transb == transpose::conj_trans);
  const transpose ta = real_op(transa);
  const transpose tb = real_op(transb);

  matrix<R> pr(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  matrix<R> pi(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  // Pr = Ar*Br - Ai*Bi ; Pi = Ar*Bi + Ai*Br
  gemm_blocked(ta, tb, m, n, k, R(1), ar.data(), rows_a, br.data(), rows_b,
               R(0), pr.data(), m);
  gemm_blocked(ta, tb, m, n, k, R(-1), ai.data(), rows_a, bi.data(), rows_b,
               R(1), pr.data(), m);
  gemm_blocked(ta, tb, m, n, k, R(1), ar.data(), rows_a, bi.data(), rows_b,
               R(0), pi.data(), m);
  gemm_blocked(ta, tb, m, n, k, R(1), ai.data(), rows_a, br.data(), rows_b,
               R(1), pi.data(), m);

  combine_planes(m, n, alpha, pr.data(), pi.data(), m, beta, c, ldc);
}

/// CGEMM under a FLOAT_TO_* mode as the engine ran it before its split
/// route was fused: the split applies to each of the four real plane
/// products, so they are four sgemm_split calls over dense planes (the
/// engine held the planes in a pack-arena slot; here they are matrices).
void gemm_split_planes(compute_mode mode, transpose transa, transpose transb,
                       blas_int m, blas_int n, blas_int k,
                       std::complex<float> alpha,
                       const std::complex<float>* a, blas_int lda,
                       const std::complex<float>* b, blas_int ldb,
                       std::complex<float> beta, std::complex<float>* c,
                       blas_int ldc) {
  const blas_int rows_a = transa == transpose::none ? m : k;
  const blas_int cols_a = transa == transpose::none ? k : m;
  const blas_int rows_b = transb == transpose::none ? k : n;
  const blas_int cols_b = transb == transpose::none ? n : k;
  auto [ar, ai] = extract_planes(a, rows_a, cols_a, lda,
                                 transa == transpose::conj_trans);
  auto [br, bi] = extract_planes(b, rows_b, cols_b, ldb,
                                 transb == transpose::conj_trans);
  matrix<float> pr(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  matrix<float> pi(static_cast<std::size_t>(m), static_cast<std::size_t>(n));

  // Conjugation is folded into the planes: each product is a real GEMM.
  const transpose ta = transa == transpose::none ? transa : transpose::trans;
  const transpose tb = transb == transpose::none ? transb : transpose::trans;
  sgemm_split(mode, ta, tb, m, n, k, 1.0f, ar.data(), rows_a, br.data(),
              rows_b, 0.0f, pr.data(), m);
  sgemm_split(mode, ta, tb, m, n, k, -1.0f, ai.data(), rows_a, bi.data(),
              rows_b, 1.0f, pr.data(), m);
  sgemm_split(mode, ta, tb, m, n, k, 1.0f, ar.data(), rows_a, bi.data(),
              rows_b, 0.0f, pi.data(), m);
  sgemm_split(mode, ta, tb, m, n, k, 1.0f, ai.data(), rows_a, br.data(),
              rows_b, 1.0f, pi.data(), m);
  combine_planes(m, n, alpha, pr.data(), pi.data(), m, beta, c, ldc);
}

/// 3M complex GEMM (Karatsuba-style): three real products
/// P1 = Ar*Br, P2 = Ai*Bi, P3 = (Ar+Ai)*(Br+Bi);
/// Cr = P1 - P2, Ci = P3 - P1 - P2.  Same flop class as the hardware
/// cgemm3m path, with its characteristic cancellation behaviour.
template <typename R>
void gemm_3m(transpose transa, transpose transb, blas_int m, blas_int n,
             blas_int k, std::complex<R> alpha, const std::complex<R>* a,
             blas_int lda, const std::complex<R>* b, blas_int ldb,
             std::complex<R> beta, std::complex<R>* c, blas_int ldc) {
  const blas_int rows_a = transa == transpose::none ? m : k;
  const blas_int cols_a = transa == transpose::none ? k : m;
  const blas_int rows_b = transb == transpose::none ? k : n;
  const blas_int cols_b = transb == transpose::none ? n : k;

  auto [ar, ai] = extract_planes(a, rows_a, cols_a, lda,
                                 transa == transpose::conj_trans);
  auto [br, bi] = extract_planes(b, rows_b, cols_b, ldb,
                                 transb == transpose::conj_trans);
  const transpose ta = real_op(transa);
  const transpose tb = real_op(transb);

  matrix<R> sa(static_cast<std::size_t>(rows_a),
               static_cast<std::size_t>(cols_a));
  for (std::size_t i = 0; i < sa.size(); ++i) {
    sa.data()[i] = ar.data()[i] + ai.data()[i];
  }
  matrix<R> sb(static_cast<std::size_t>(rows_b),
               static_cast<std::size_t>(cols_b));
  for (std::size_t i = 0; i < sb.size(); ++i) {
    sb.data()[i] = br.data()[i] + bi.data()[i];
  }

  matrix<R> p1(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  matrix<R> p2(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  matrix<R> p3(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  gemm_blocked(ta, tb, m, n, k, R(1), ar.data(), rows_a, br.data(), rows_b,
               R(0), p1.data(), m);
  gemm_blocked(ta, tb, m, n, k, R(1), ai.data(), rows_a, bi.data(), rows_b,
               R(0), p2.data(), m);
  gemm_blocked(ta, tb, m, n, k, R(1), sa.data(), rows_a, sb.data(), rows_b,
               R(0), p3.data(), m);

  matrix<R> pr(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  matrix<R> pi(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < pr.size(); ++i) {
    const R v1 = p1.data()[i];
    const R v2 = p2.data()[i];
    pr.data()[i] = v1 - v2;
    pi.data()[i] = p3.data()[i] - v1 - v2;
  }
  combine_planes(m, n, alpha, pr.data(), pi.data(), m, beta, c, ldc);
}

}  // namespace

void complex_gemm_reference(compute_mode mode, transpose transa,
                            transpose transb, blas_int m, blas_int n,
                            blas_int k, std::complex<float> alpha,
                            const std::complex<float>* a, blas_int lda,
                            const std::complex<float>* b, blas_int ldb,
                            std::complex<float> beta, std::complex<float>* c,
                            blas_int ldc) {
  validate_gemm_args(transa, transb, m, n, k, a, lda, b, ldb, c, ldc,
                     /*needs_ab=*/alpha != decltype(alpha)(0));
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == std::complex<float>(0)) {
    scale_c(m, n, beta, c, ldc);
    return;
  }
  if (mode == compute_mode::complex_3m) {
    gemm_3m(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else if (is_split_mode(mode)) {
    gemm_split_planes(mode, transa, transb, m, n, k, alpha, a, lda, b, ldb,
                      beta, c, ldc);
  } else {
    gemm_4m(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  }
}

void complex_gemm_reference(compute_mode mode, transpose transa,
                            transpose transb, blas_int m, blas_int n,
                            blas_int k, std::complex<double> alpha,
                            const std::complex<double>* a, blas_int lda,
                            const std::complex<double>* b, blas_int ldb,
                            std::complex<double> beta,
                            std::complex<double>* c, blas_int ldc) {
  validate_gemm_args(transa, transb, m, n, k, a, lda, b, ldb, c, ldc,
                     /*needs_ab=*/alpha != decltype(alpha)(0));
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == std::complex<double>(0)) {
    scale_c(m, n, beta, c, ldc);
    return;
  }
  if (mode == compute_mode::complex_3m) {
    gemm_3m(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else {
    gemm_4m(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  }
}

}  // namespace dcmesh::blas::detail
