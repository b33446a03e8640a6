#include "dcmesh/blas/trsm.hpp"

#include <stdexcept>

#include "dcmesh/blas/verbose.hpp"

namespace dcmesh::blas {
namespace {

template <typename T>
constexpr T conj_if(T v, bool c) {
  if constexpr (std::is_floating_point_v<T>) {
    (void)c;
    return v;
  } else {
    return c ? std::conj(v) : v;
  }
}

template <typename T>
struct trsm_traits {
  static constexpr const char* routine = "STRSM";
  static constexpr bool is_complex = false;
};
template <>
struct trsm_traits<double> {
  static constexpr const char* routine = "DTRSM";
  static constexpr bool is_complex = false;
};
template <>
struct trsm_traits<std::complex<float>> {
  static constexpr const char* routine = "CTRSM";
  static constexpr bool is_complex = true;
};
template <>
struct trsm_traits<std::complex<double>> {
  static constexpr const char* routine = "ZTRSM";
  static constexpr bool is_complex = true;
};

/// Real flop count of a triangular solve: order^2 * nrhs multiply-adds
/// over the triangle (standard LAPACK accounting).
constexpr double trsm_flops(bool is_complex, blas_int order,
                            blas_int nrhs) noexcept {
  const double work = static_cast<double>(order) *
                      static_cast<double>(order) *
                      static_cast<double>(nrhs);
  return (is_complex ? 4.0 : 1.0) * work;
}

template <typename T>
void trsm_solve(side s, uplo u, transpose trans, diag d, blas_int m,
                blas_int n, T alpha, const T* a, blas_int lda, T* b,
                blas_int ldb) {
  // Scale B by alpha first (alpha == 0 zeroes B, per BLAS).
  for (blas_int j = 0; j < n; ++j) {
    T* col = b + j * ldb;
    for (blas_int i = 0; i < m; ++i) {
      col[i] = alpha == T(0) ? T(0) : alpha * col[i];
    }
  }
  if (alpha == T(0)) return;

  // Element (r, c) of op(A); op folds transpose/conjugation into the
  // access pattern, flipping the effective triangle.
  const bool transposed = trans != transpose::none;
  const bool conjugated = trans == transpose::conj_trans;
  const auto op_a = [&](blas_int r, blas_int c) -> T {
    return transposed ? conj_if(a[c + r * lda], conjugated)
                      : a[r + c * lda];
  };
  // op(A) is upper-triangular iff the storage triangle flips under
  // transposition.
  const bool eff_upper = (u == uplo::upper) != transposed;
  const auto pivot = [&](blas_int i) -> T {
    if (d == diag::unit) return T(1);
    const T p = op_a(i, i);
    if (p == T(0)) throw std::invalid_argument("trsm: zero pivot");
    return p;
  };

  if (s == side::left) {
    // Solve op(A) X = B column by column.
    for (blas_int j = 0; j < n; ++j) {
      T* x = b + j * ldb;
      if (eff_upper) {
        for (blas_int i = m - 1; i >= 0; --i) {
          T sum = x[i];
          for (blas_int p = i + 1; p < m; ++p) sum -= op_a(i, p) * x[p];
          x[i] = sum / pivot(i);
        }
      } else {
        for (blas_int i = 0; i < m; ++i) {
          T sum = x[i];
          for (blas_int p = 0; p < i; ++p) sum -= op_a(i, p) * x[p];
          x[i] = sum / pivot(i);
        }
      }
    }
    return;
  }

  // side::right — solve X op(A) = B: column recurrence over j.
  if (eff_upper) {
    for (blas_int j = 0; j < n; ++j) {
      T* xj = b + j * ldb;
      for (blas_int p = 0; p < j; ++p) {
        const T w = op_a(p, j);
        if (w == T(0)) continue;
        const T* xp = b + p * ldb;
        for (blas_int i = 0; i < m; ++i) xj[i] -= xp[i] * w;
      }
      const T piv = pivot(j);
      for (blas_int i = 0; i < m; ++i) xj[i] /= piv;
    }
  } else {
    for (blas_int j = n - 1; j >= 0; --j) {
      T* xj = b + j * ldb;
      for (blas_int p = j + 1; p < n; ++p) {
        const T w = op_a(p, j);
        if (w == T(0)) continue;
        const T* xp = b + p * ldb;
        for (blas_int i = 0; i < m; ++i) xj[i] -= xp[i] * w;
      }
      const T piv = pivot(j);
      for (blas_int i = 0; i < m; ++i) xj[i] /= piv;
    }
  }
}

}  // namespace

template <typename T>
void trsm(side s, uplo u, transpose trans, diag d, blas_int m, blas_int n,
          T alpha, const T* a, blas_int lda, T* b, blas_int ldb,
          std::string_view call_site) {
  if (m < 0 || n < 0) throw std::invalid_argument("trsm: negative dim");
  const blas_int order = s == side::left ? m : n;
  if (lda < std::max<blas_int>(1, order)) {
    throw std::invalid_argument("trsm: lda too small");
  }
  if (ldb < std::max<blas_int>(1, m)) {
    throw std::invalid_argument("trsm: ldb too small");
  }
  if (m == 0 || n == 0) return;

  // Triangular solves never change arithmetic under compute modes, but they
  // are part of the level-3 surface: time and log each one so per-site
  // attribution (MKL_VERBOSE / JSONL) covers the whole hot path.
  call_record record;
  record.routine = trsm_traits<T>::routine;
  record.transa = static_cast<char>(trans);
  record.transb = static_cast<char>(s);
  record.m = m;
  record.n = n;
  record.k = order;
  record.lda = lda;
  record.ldb = ldb;
  record.ldc = ldb;
  record.flops = trsm_flops(trsm_traits<T>::is_complex, order,
                            s == side::left ? n : m);
  record.call_site = std::string(call_site);
  record.start_clock();
  trsm_solve(s, u, trans, d, m, n, alpha, a, lda, b, ldb);
  record.stop_clock();
  record_call(std::move(record));
}

#define DCMESH_INSTANTIATE_TRSM(T)                                        \
  template void trsm<T>(side, uplo, transpose, diag, blas_int, blas_int,  \
                        T, const T*, blas_int, T*, blas_int,              \
                        std::string_view);

DCMESH_INSTANTIATE_TRSM(float)
DCMESH_INSTANTIATE_TRSM(double)
DCMESH_INSTANTIATE_TRSM(std::complex<float>)
DCMESH_INSTANTIATE_TRSM(std::complex<double>)
#undef DCMESH_INSTANTIATE_TRSM

}  // namespace dcmesh::blas
