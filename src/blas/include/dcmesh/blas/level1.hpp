#pragma once
// level1.hpp — BLAS level-1 routines of minimkl.
//
// The LFD propagator's vector updates (Taylor-term axpy, column scaling,
// norms) and the SCF inner products run through these instead of ad-hoc
// loops, mirroring how DCMESH leans on the vendor BLAS throughout.
// Alternative compute modes do NOT apply to level 1 — in oneMKL they are
// level-3 only — so these are always standard arithmetic.

#include <complex>
#include <cstdint>

namespace dcmesh::blas {

using blas_int = std::int64_t;

/// y <- alpha*x + y.
template <typename T>
void axpy(blas_int n, T alpha, const T* x, blas_int incx, T* y,
          blas_int incy);

/// x <- alpha*x.
template <typename T>
void scal(blas_int n, T alpha, T* x, blas_int incx);

/// Scale a complex vector by a real factor (csscal/zdscal).
template <typename R>
void scal_real(blas_int n, R alpha, std::complex<R>* x, blas_int incx);

/// y <- x.
template <typename T>
void copy(blas_int n, const T* x, blas_int incx, T* y, blas_int incy);

/// Euclidean norm, accumulated in double regardless of T's precision.
/// Double data uses reference BLAS's scaled accumulation; float data sums
/// exact double squares in fixed lanes, which needs no scaling and gives
/// the same bits on every ISA tier and stride.
template <typename T>
[[nodiscard]] double nrm2(blas_int n, const T* x, blas_int incx);

/// Unconjugated dot product (dotu): sum x_i * y_i.
template <typename T>
[[nodiscard]] T dotu(blas_int n, const T* x, blas_int incx, const T* y,
                     blas_int incy);

/// Conjugated dot product (dotc): sum conj(x_i) * y_i.
/// For real T this equals dotu.
template <typename T>
[[nodiscard]] T dotc(blas_int n, const T* x, blas_int incx, const T* y,
                     blas_int incy);

/// Sum of absolute values (asum); for complex, |re| + |im| per element as
/// in reference BLAS.
template <typename T>
[[nodiscard]] double asum(blas_int n, const T* x, blas_int incx);

/// Index of the element with the largest asum-style magnitude (iamax);
/// returns -1 for n <= 0.
template <typename T>
[[nodiscard]] blas_int iamax(blas_int n, const T* x, blas_int incx);

}  // namespace dcmesh::blas
