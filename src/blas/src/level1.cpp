#include "dcmesh/blas/level1.hpp"

#include <cmath>
#include <stdexcept>
#include <type_traits>

namespace dcmesh::blas {
namespace {

void check_inc(blas_int inc) {
  if (inc == 0) throw std::invalid_argument("level1: zero increment");
}

/// |x| for real, |re| + |im| for complex (reference-BLAS asum convention).
template <typename T>
double abs1(const T& v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::abs(static_cast<double>(v));
  } else {
    return std::abs(static_cast<double>(v.real())) +
           std::abs(static_cast<double>(v.imag()));
  }
}

/// Lanes of the single-precision nrm2 sum: float k of x (counting a
/// complex element's real and imaginary parts as two) adds into lane
/// k mod kNrm2Lanes.
constexpr int kNrm2Lanes = 16;

/// ||x|| for float data, `width` floats per element (1 real, 2 complex).
/// A float squared in double is exact (at most 48 significant bits) and
/// cannot overflow or underflow, so no scaling is needed.  With exact
/// squares, a fused multiply-add rounds exactly as the separate add does,
/// and each lane is one chain in element order: the result is the same
/// at any vector width, FMA contraction or stride.
double nrm2_single(blas_int n, const float* x, blas_int incx, int width) {
  double lane[kNrm2Lanes] = {};
  if (incx == 1) {
    const blas_int nf = n * width;
    blas_int k = 0;
    for (; k + kNrm2Lanes <= nf; k += kNrm2Lanes) {
      for (int l = 0; l < kNrm2Lanes; ++l) {
        const double v = x[k + l];
        lane[l] += v * v;
      }
    }
    for (int l = 0; k < nf; ++k, ++l) {
      const double v = x[k];
      lane[l] += v * v;
    }
  } else {
    int l = 0;
    for (blas_int i = 0; i < n; ++i) {
      const float* e = x + i * incx * width;
      for (int w = 0; w < width; ++w, l = (l + 1) % kNrm2Lanes) {
        const double v = e[w];
        lane[l] += v * v;
      }
    }
  }
  for (int half = kNrm2Lanes / 2; half > 0; half /= 2) {
    for (int l = 0; l < half; ++l) lane[l] += lane[l + half];
  }
  return std::sqrt(lane[0]);
}

}  // namespace

template <typename T>
void axpy(blas_int n, T alpha, const T* x, blas_int incx, T* y,
          blas_int incy) {
  if (n <= 0 || alpha == T(0)) return;
  check_inc(incx);
  check_inc(incy);
  if (incx == 1 && incy == 1) {
    for (blas_int i = 0; i < n; ++i) y[i] += alpha * x[i];
    return;
  }
  blas_int ix = incx > 0 ? 0 : (1 - n) * incx;
  blas_int iy = incy > 0 ? 0 : (1 - n) * incy;
  for (blas_int i = 0; i < n; ++i, ix += incx, iy += incy) {
    y[iy] += alpha * x[ix];
  }
}

template <typename T>
void scal(blas_int n, T alpha, T* x, blas_int incx) {
  if (n <= 0) return;
  check_inc(incx);
  if (incx < 0) return;  // reference BLAS: no-op for negative incx
  for (blas_int i = 0, ix = 0; i < n; ++i, ix += incx) x[ix] *= alpha;
}

template <typename R>
void scal_real(blas_int n, R alpha, std::complex<R>* x, blas_int incx) {
  if (n <= 0) return;
  check_inc(incx);
  if (incx < 0) return;
  for (blas_int i = 0, ix = 0; i < n; ++i, ix += incx) x[ix] *= alpha;
}

template <typename T>
void copy(blas_int n, const T* x, blas_int incx, T* y, blas_int incy) {
  if (n <= 0) return;
  check_inc(incx);
  check_inc(incy);
  blas_int ix = incx > 0 ? 0 : (1 - n) * incx;
  blas_int iy = incy > 0 ? 0 : (1 - n) * incy;
  for (blas_int i = 0; i < n; ++i, ix += incx, iy += incy) y[iy] = x[ix];
}

template <typename T>
double nrm2(blas_int n, const T* x, blas_int incx) {
  if (n <= 0) return 0.0;
  check_inc(incx);
  if (incx < 0) return 0.0;
  if constexpr (std::is_same_v<T, float>) {
    return nrm2_single(n, x, incx, 1);
  } else if constexpr (std::is_same_v<T, std::complex<float>>) {
    // std::complex<float> is layout-compatible with float[2].
    return nrm2_single(n, reinterpret_cast<const float*>(x), incx, 2);
  } else {
    // Scaled accumulation avoids overflow/underflow of the squares.
    double scale = 0.0, ssq = 1.0;
    for (blas_int i = 0, ix = 0; i < n; ++i, ix += incx) {
      const auto accumulate = [&](double v) {
        if (v == 0.0) return;
        const double av = std::abs(v);
        if (scale < av) {
          ssq = 1.0 + ssq * (scale / av) * (scale / av);
          scale = av;
        } else {
          ssq += (av / scale) * (av / scale);
        }
      };
      if constexpr (std::is_floating_point_v<T>) {
        accumulate(static_cast<double>(x[ix]));
      } else {
        accumulate(static_cast<double>(x[ix].real()));
        accumulate(static_cast<double>(x[ix].imag()));
      }
    }
    return scale * std::sqrt(ssq);
  }
}

template <typename T>
T dotu(blas_int n, const T* x, blas_int incx, const T* y, blas_int incy) {
  T sum{};
  if (n <= 0) return sum;
  check_inc(incx);
  check_inc(incy);
  blas_int ix = incx > 0 ? 0 : (1 - n) * incx;
  blas_int iy = incy > 0 ? 0 : (1 - n) * incy;
  for (blas_int i = 0; i < n; ++i, ix += incx, iy += incy) {
    sum += x[ix] * y[iy];
  }
  return sum;
}

template <typename T>
T dotc(blas_int n, const T* x, blas_int incx, const T* y, blas_int incy) {
  T sum{};
  if (n <= 0) return sum;
  check_inc(incx);
  check_inc(incy);
  blas_int ix = incx > 0 ? 0 : (1 - n) * incx;
  blas_int iy = incy > 0 ? 0 : (1 - n) * incy;
  for (blas_int i = 0; i < n; ++i, ix += incx, iy += incy) {
    if constexpr (std::is_floating_point_v<T>) {
      sum += x[ix] * y[iy];
    } else {
      sum += std::conj(x[ix]) * y[iy];
    }
  }
  return sum;
}

template <typename T>
double asum(blas_int n, const T* x, blas_int incx) {
  if (n <= 0) return 0.0;
  check_inc(incx);
  if (incx < 0) return 0.0;
  double sum = 0.0;
  for (blas_int i = 0, ix = 0; i < n; ++i, ix += incx) sum += abs1(x[ix]);
  return sum;
}

template <typename T>
blas_int iamax(blas_int n, const T* x, blas_int incx) {
  if (n <= 0) return -1;
  check_inc(incx);
  if (incx < 0) return -1;
  blas_int best = 0;
  double best_val = abs1(x[0]);
  for (blas_int i = 1, ix = incx; i < n; ++i, ix += incx) {
    const double v = abs1(x[ix]);
    if (v > best_val) {
      best_val = v;
      best = i;
    }
  }
  return best;
}

// Explicit instantiations for the four standard precisions.
#define DCMESH_INSTANTIATE_LEVEL1(T)                                        \
  template void axpy<T>(blas_int, T, const T*, blas_int, T*, blas_int);     \
  template void scal<T>(blas_int, T, T*, blas_int);                         \
  template void copy<T>(blas_int, const T*, blas_int, T*, blas_int);        \
  template double nrm2<T>(blas_int, const T*, blas_int);                    \
  template T dotu<T>(blas_int, const T*, blas_int, const T*, blas_int);     \
  template T dotc<T>(blas_int, const T*, blas_int, const T*, blas_int);     \
  template double asum<T>(blas_int, const T*, blas_int);                    \
  template blas_int iamax<T>(blas_int, const T*, blas_int);

DCMESH_INSTANTIATE_LEVEL1(float)
DCMESH_INSTANTIATE_LEVEL1(double)
DCMESH_INSTANTIATE_LEVEL1(std::complex<float>)
DCMESH_INSTANTIATE_LEVEL1(std::complex<double>)
#undef DCMESH_INSTANTIATE_LEVEL1

template void scal_real<float>(blas_int, float, std::complex<float>*,
                               blas_int);
template void scal_real<double>(blas_int, double, std::complex<double>*,
                                blas_int);

}  // namespace dcmesh::blas
