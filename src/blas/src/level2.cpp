#include "dcmesh/blas/level2.hpp"

#include <stdexcept>

#include "dcmesh/blas/verbose.hpp"

namespace dcmesh::blas {
namespace {

/// Verbose-record routine names per element type.
template <typename T>
struct gemv_traits {
  static constexpr const char* routine = "SGEMV";
  static constexpr bool is_complex = false;
};
template <>
struct gemv_traits<double> {
  static constexpr const char* routine = "DGEMV";
  static constexpr bool is_complex = false;
};
template <>
struct gemv_traits<std::complex<float>> {
  static constexpr const char* routine = "CGEMV";
  static constexpr bool is_complex = true;
};
template <>
struct gemv_traits<std::complex<double>> {
  static constexpr const char* routine = "ZGEMV";
  static constexpr bool is_complex = true;
};

template <typename T>
void validate_gemv(blas_int m, blas_int n, blas_int lda, blas_int incx,
                   blas_int incy) {
  if (m < 0 || n < 0) throw std::invalid_argument("gemv: negative dim");
  if (lda < std::max<blas_int>(1, m)) {
    throw std::invalid_argument("gemv: lda too small");
  }
  if (incx == 0 || incy == 0) {
    throw std::invalid_argument("gemv: zero increment");
  }
  (void)sizeof(T);
}

template <typename T>
constexpr T conj_if(T v, bool c) {
  if constexpr (std::is_floating_point_v<T>) {
    (void)c;
    return v;
  } else {
    return c ? std::conj(v) : v;
  }
}

/// The arithmetic of gemv, shared by the timed public wrapper.
template <typename T>
void gemv_apply(transpose trans, blas_int m, blas_int n, T alpha,
                const T* a, blas_int lda, const T* x, blas_int incx,
                T beta, T* y, blas_int incy) {
  const blas_int rows_y = trans == transpose::none ? m : n;
  const blas_int len_x = trans == transpose::none ? n : m;
  if (rows_y == 0) return;

  // y <- beta*y
  blas_int iy = incy > 0 ? 0 : (1 - rows_y) * incy;
  for (blas_int i = 0; i < rows_y; ++i, iy += incy) {
    y[iy] = beta == T(0) ? T(0) : beta * y[iy];
  }
  if (alpha == T(0) || len_x == 0) return;

  const bool conj_a = trans == transpose::conj_trans;
  if (trans == transpose::none) {
    // y += alpha * A x, column sweep (unit-stride down each column).
    blas_int jx = incx > 0 ? 0 : (1 - n) * incx;
    for (blas_int j = 0; j < n; ++j, jx += incx) {
      const T w = alpha * x[jx];
      const T* col = a + j * lda;
      blas_int iy2 = incy > 0 ? 0 : (1 - m) * incy;
      for (blas_int i = 0; i < m; ++i, iy2 += incy) y[iy2] += w * col[i];
    }
  } else {
    // y_j += alpha * sum_i op(A)_{j,i} x_i = alpha * dot(col_j, x).
    blas_int jy = incy > 0 ? 0 : (1 - n) * incy;
    for (blas_int j = 0; j < n; ++j, jy += incy) {
      const T* col = a + j * lda;
      T sum{};
      blas_int ix = incx > 0 ? 0 : (1 - m) * incx;
      for (blas_int i = 0; i < m; ++i, ix += incx) {
        sum += conj_if(col[i], conj_a) * x[ix];
      }
      y[jy] += alpha * sum;
    }
  }
}

}  // namespace

template <typename T>
void gemv(transpose trans, blas_int m, blas_int n, T alpha, const T* a,
          blas_int lda, const T* x, blas_int incx, T beta, T* y,
          blas_int incy, std::string_view call_site) {
  validate_gemv<T>(m, n, lda, incx, incy);

  // Level 2 never changes arithmetic under compute modes, but interposed
  // projections/contractions belong in the per-site attribution exactly
  // like trsm/syrk: one record per call, mode fixed at standard.
  call_record record;
  record.routine = gemv_traits<T>::routine;
  record.transa = static_cast<char>(trans);
  record.m = m;
  record.n = n;
  record.lda = lda;
  record.ldb = incx;
  record.ldc = incy;
  record.flops = (gemv_traits<T>::is_complex ? 8.0 : 2.0) * double(m) *
                 double(n);
  record.call_site = std::string(call_site);
  record.start_clock();
  gemv_apply(trans, m, n, alpha, a, lda, x, incx, beta, y, incy);
  record.stop_clock();
  record_call(std::move(record));
}

template <typename T>
void ger(blas_int m, blas_int n, T alpha, const T* x, blas_int incx,
         const T* y, blas_int incy, T* a, blas_int lda) {
  validate_gemv<T>(m, n, lda, incx, incy);
  if (m == 0 || n == 0 || alpha == T(0)) return;
  blas_int jy = incy > 0 ? 0 : (1 - n) * incy;
  for (blas_int j = 0; j < n; ++j, jy += incy) {
    const T w = alpha * y[jy];
    T* col = a + j * lda;
    blas_int ix = incx > 0 ? 0 : (1 - m) * incx;
    for (blas_int i = 0; i < m; ++i, ix += incx) col[i] += x[ix] * w;
  }
}

template <typename T>
void gerc(blas_int m, blas_int n, T alpha, const T* x, blas_int incx,
          const T* y, blas_int incy, T* a, blas_int lda) {
  validate_gemv<T>(m, n, lda, incx, incy);
  if (m == 0 || n == 0 || alpha == T(0)) return;
  blas_int jy = incy > 0 ? 0 : (1 - n) * incy;
  for (blas_int j = 0; j < n; ++j, jy += incy) {
    const T w = alpha * conj_if(y[jy], true);
    T* col = a + j * lda;
    blas_int ix = incx > 0 ? 0 : (1 - m) * incx;
    for (blas_int i = 0; i < m; ++i, ix += incx) col[i] += x[ix] * w;
  }
}

#define DCMESH_INSTANTIATE_LEVEL2(T)                                      \
  template void gemv<T>(transpose, blas_int, blas_int, T, const T*,       \
                        blas_int, const T*, blas_int, T, T*, blas_int,    \
                        std::string_view);                                \
  template void ger<T>(blas_int, blas_int, T, const T*, blas_int,         \
                       const T*, blas_int, T*, blas_int);                 \
  template void gerc<T>(blas_int, blas_int, T, const T*, blas_int,        \
                        const T*, blas_int, T*, blas_int);

DCMESH_INSTANTIATE_LEVEL2(float)
DCMESH_INSTANTIATE_LEVEL2(double)
DCMESH_INSTANTIATE_LEVEL2(std::complex<float>)
DCMESH_INSTANTIATE_LEVEL2(std::complex<double>)
#undef DCMESH_INSTANTIATE_LEVEL2

}  // namespace dcmesh::blas
