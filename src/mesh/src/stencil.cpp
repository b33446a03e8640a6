#include "dcmesh/mesh/stencil.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace dcmesh::mesh {
namespace {

// Central-difference coefficients.
// 2nd order Laplacian: (1, -2, 1) / h^2 per axis.
// 4th order Laplacian: (-1/12, 4/3, -5/2, 4/3, -1/12) / h^2 per axis.
// 2nd order gradient:  (-1/2, 0, 1/2) / h.
// 4th order gradient:  (1/12, -2/3, 0, 2/3, -1/12) / h.

struct stencil_taps {
  int radius;
  std::array<double, 2> off;  ///< off[d-1] = coefficient at distance d.
  double center;
};

constexpr stencil_taps lap_taps(fd_order order) noexcept {
  if (order == fd_order::second) return {1, {1.0, 0.0}, -2.0};
  return {2, {4.0 / 3.0, -1.0 / 12.0}, -5.0 / 2.0};
}

constexpr stencil_taps grad_taps(fd_order order) noexcept {
  if (order == fd_order::second) return {1, {0.5, 0.0}, 0.0};
  return {2, {2.0 / 3.0, -1.0 / 12.0}, 0.0};
}

/// Tap weights with the coefficient folded in, as the point-by-point
/// stencils formed them.
template <typename R>
struct weights {
  std::complex<R> kin_center{};
  std::array<std::complex<R>, 2> kin{};   ///< kin[d-1]: distance d.
  std::array<std::complex<R>, 2> grad{};  ///< grad[d-1]: distance d.
};

template <typename R>
void set_kinetic(weights<R>& w, const grid3d& grid, fd_order order,
                 std::complex<R> coeff) {
  const stencil_taps taps = lap_taps(order);
  const double inv_h2 = 1.0 / (grid.spacing * grid.spacing);
  // -1/2 nabla^2 folded into the tap weights.
  w.kin_center = coeff * static_cast<R>(-0.5 * 3.0 * taps.center * inv_h2);
  for (int d = 1; d <= taps.radius; ++d) {
    const auto k = static_cast<std::size_t>(d - 1);
    w.kin[k] = coeff * static_cast<R>(-0.5 * taps.off[k] * inv_h2);
  }
}

template <typename R>
void set_gradient(weights<R>& w, const grid3d& grid, fd_order order,
                  std::complex<R> coeff) {
  const stencil_taps taps = grad_taps(order);
  const double inv_h = 1.0 / grid.spacing;
  for (int d = 1; d <= taps.radius; ++d) {
    const auto k = static_cast<std::size_t>(d - 1);
    w.grad[k] = coeff * static_cast<R>(taps.off[k] * inv_h);
  }
}

/// What a point's value starts from before the stencil terms are added.
enum class start { accumulate, zero, diagonal };

/// The sweep over every point, one pass:
///   v = out (accumulate) | 0 (zero) | (diag + shift) * psi (diagonal)
///   v += kinetic stencil                  (Kinetic)
///   v += gradient stencil along GradAxis  (GradAxis >= 0)
///   out = v
/// Each term keeps the point-by-point stencils' expression and summation
/// order: kinetic acc = w_c c, then acc += w_d (((((xm + xp) + ym) + yp)
/// + zm) + zp) for d ascending; gradient acc = 0, then acc += w_d (p - m).
///
/// Complex values are read as (re, im) pairs of R (the array access
/// std::complex guarantees, [complex.numbers]), and w * s is written out
/// as the finite branch of the complex product, (wr sr - wi si, wr si +
/// wi sr): the built-in operator adds a per-point NaN-recovery branch (C99
/// Annex G) that keeps the loop scalar.  On finite operands the two agree
/// bit for bit whenever one part of w is zero, which holds for every
/// coefficient the LFD call sites pass.  This file is compiled with
/// -ffp-contract=off, so the diagonal product is rounded before the
/// stencil terms are added, as it was when it was a pass of its own.
///
/// The y and z neighbour rows wrap once per row.  Each row is swept in
/// chunks of at most kChunk points, and each chunk is copied with its
/// Radius halo into `pad`, so every point reads its x neighbours unwrapped
/// and only the 2 Radius halo points wrap.
template <int Radius, start Start, bool Kinetic, int GradAxis, typename R>
void sweep(const grid3d& grid, const weights<R>& w, const R* diag, R shift,
           const std::complex<R>* psi_c, std::complex<R>* out_c) {
  const auto* psi = reinterpret_cast<const R*>(psi_c);
  auto* out = reinterpret_cast<R*>(out_c);
  const std::int64_t nx = grid.nx, ny = grid.ny, nz = grid.nz;
  // Periodic wrap of i in [-Radius, n + Radius) without a division.
  const auto wrap = [](std::int64_t i, std::int64_t n) {
    if (n < Radius) return grid3d::wrap(i, n);
    return i < 0 ? i + n : (i >= n ? i - n : i);
  };
  constexpr std::int64_t kChunk = 128;
  std::array<R, 2 * (kChunk + 2 * Radius)> pad;

  const R wc_re = w.kin_center.real(), wc_im = w.kin_center.imag();
  std::array<R, Radius> wk_re, wk_im, wg_re, wg_im;
  for (std::size_t k = 0; k < Radius; ++k) {
    wk_re[k] = w.kin[k].real();
    wk_im[k] = w.kin[k].imag();
    wg_re[k] = w.grad[k].real();
    wg_im[k] = w.grad[k].imag();
  }

  for (std::int64_t iz = 0; iz < nz; ++iz) {
    // Element offsets (2 R per point) of the z neighbour planes.
    std::array<std::int64_t, Radius> zm_plane, zp_plane;
    for (int d = 1; d <= Radius; ++d) {
      zm_plane[d - 1] = 2 * nx * ny * wrap(iz - d, nz);
      zp_plane[d - 1] = 2 * nx * ny * wrap(iz + d, nz);
    }
    const R* plane = psi + 2 * nx * ny * iz;
    for (std::int64_t iy = 0; iy < ny; ++iy) {
      const std::int64_t row = grid.index(0, iy, iz);
      const R* c = psi + 2 * row;
      std::array<const R*, Radius> ym, yp, zm, zp;
      for (int d = 1; d <= Radius; ++d) {
        const auto k = static_cast<std::size_t>(d - 1);
        ym[k] = plane + 2 * nx * wrap(iy - d, ny);
        yp[k] = plane + 2 * nx * wrap(iy + d, ny);
        zm[k] = psi + zm_plane[k] + 2 * nx * iy;
        zp[k] = psi + zp_plane[k] + 2 * nx * iy;
      }
      const R* drow = Start == start::diagonal ? diag + row : nullptr;
      R* orow = out + 2 * row;

      for (std::int64_t x0 = 0; x0 < nx; x0 += kChunk) {
        const std::int64_t len = std::min(kChunk, nx - x0);
        const auto put = [&](std::int64_t slot, std::int64_t xs) {
          pad[static_cast<std::size_t>(2 * slot)] = c[2 * xs];
          pad[static_cast<std::size_t>(2 * slot + 1)] = c[2 * xs + 1];
        };
        for (std::int64_t j = 0; j < Radius; ++j) {
          put(j, wrap(x0 - Radius + j, nx));
          put(Radius + len + j, wrap(x0 + len + j, nx));
        }
        std::copy_n(c + 2 * x0, 2 * len, pad.begin() + 2 * Radius);
        // x[2 i], x[2 i + 1]: the point at x = i, for i in
        // [x0 - Radius, x0 + len + Radius).
        const R* x = pad.data() + 2 * (Radius - x0);

        // psi and out do not overlap (stencil.hpp), so the points are
        // independent.
#pragma omp simd
        for (std::int64_t ix = x0; ix < x0 + len; ++ix) {
          const std::int64_t re = 2 * ix, im = re + 1;
          R v_re = Start == start::accumulate ? orow[re] : R(0);
          R v_im = Start == start::accumulate ? orow[im] : R(0);
          if constexpr (Start == start::diagonal) {
            const R dg = drow[ix] + shift;
            v_re = c[re] * dg;
            v_im = c[im] * dg;
          }
          if constexpr (Kinetic) {
            R acc_re = wc_re * c[re] - wc_im * c[im];
            R acc_im = wc_re * c[im] + wc_im * c[re];
            for (int d = 1; d <= Radius; ++d) {
              const auto k = static_cast<std::size_t>(d - 1);
              const R s_re = x[re - 2 * d] + x[re + 2 * d] + ym[k][re] +
                             yp[k][re] + zm[k][re] + zp[k][re];
              const R s_im = x[im - 2 * d] + x[im + 2 * d] + ym[k][im] +
                             yp[k][im] + zm[k][im] + zp[k][im];
              acc_re += wk_re[k] * s_re - wk_im[k] * s_im;
              acc_im += wk_re[k] * s_im + wk_im[k] * s_re;
            }
            v_re += acc_re;
            v_im += acc_im;
          }
          if constexpr (GradAxis >= 0) {
            R acc_re = R(0), acc_im = R(0);
            for (int d = 1; d <= Radius; ++d) {
              const auto k = static_cast<std::size_t>(d - 1);
              R s_re, s_im;
              if constexpr (GradAxis == 0) {
                s_re = x[re + 2 * d] - x[re - 2 * d];
                s_im = x[im + 2 * d] - x[im - 2 * d];
              } else if constexpr (GradAxis == 1) {
                s_re = yp[k][re] - ym[k][re];
                s_im = yp[k][im] - ym[k][im];
              } else {
                s_re = zp[k][re] - zm[k][re];
                s_im = zp[k][im] - zm[k][im];
              }
              acc_re += wg_re[k] * s_re - wg_im[k] * s_im;
              acc_im += wg_re[k] * s_im + wg_im[k] * s_re;
            }
            v_re += acc_re;
            v_im += acc_im;
          }
          orow[re] = v_re;
          orow[im] = v_im;
        }
      }
    }
  }
}

/// Dispatch the run-time order and gradient axis (-1: none) to the sweep.
template <start Start, bool Kinetic, typename R>
void dispatch(const grid3d& grid, fd_order order, int grad_axis,
              const weights<R>& w, const R* diag, R shift,
              const std::complex<R>* psi, std::complex<R>* out) {
  const auto by_axis = [&]<int Radius>() {
    const auto run = [&]<int Axis>() {
      sweep<Radius, Start, Kinetic, Axis>(grid, w, diag, shift, psi, out);
    };
    switch (grad_axis) {
      case 0: return run.template operator()<0>();
      case 1: return run.template operator()<1>();
      case 2: return run.template operator()<2>();
      default: return run.template operator()<-1>();
    }
  };
  if (order == fd_order::second) {
    by_axis.template operator()<1>();
  } else {
    by_axis.template operator()<2>();
  }
}

}  // namespace

template <typename R>
void add_kinetic(const grid3d& grid, fd_order order,
                 std::span<const std::complex<R>> psi, std::complex<R> coeff,
                 std::span<std::complex<R>> out) {
  weights<R> w;
  set_kinetic(w, grid, order, coeff);
  dispatch<start::accumulate, true, R>(grid, order, -1, w, nullptr, R(0),
                                       psi.data(), out.data());
}

template <typename R>
void add_gradient(const grid3d& grid, fd_order order, int axis,
                  std::span<const std::complex<R>> psi, std::complex<R> coeff,
                  std::span<std::complex<R>> out) {
  weights<R> w;
  set_gradient(w, grid, order, coeff);
  dispatch<start::accumulate, false, R>(grid, order, axis, w, nullptr, R(0),
                                        psi.data(), out.data());
}

template <typename R>
void apply_local_column(const grid3d& grid, fd_order order, const R* diag,
                        R shift, int axis, std::complex<R> grad_coeff,
                        std::span<const std::complex<R>> psi,
                        std::span<std::complex<R>> out) {
  weights<R> w;
  set_kinetic(w, grid, order, std::complex<R>(1));
  const int grad_axis = grad_coeff != std::complex<R>(0) ? axis : -1;
  if (grad_axis >= 0) set_gradient(w, grid, order, grad_coeff);
  if (diag) {
    dispatch<start::diagonal, true, R>(grid, order, grad_axis, w, diag,
                                       shift, psi.data(), out.data());
  } else {
    dispatch<start::zero, true, R>(grid, order, grad_axis, w, nullptr,
                                   R(0), psi.data(), out.data());
  }
}

double kinetic_spectral_radius(const grid3d& grid, fd_order order) noexcept {
  // Max over the axis of the 1-D symbol; for a cubic grid all axes equal.
  // 2nd order: max of (2 - 2cos(k)) = 4; 4th order: 16/3 at k = pi
  // (coefficients -1/12, 4/3, -5/2: symbol 5/2 + ... evaluates to 16/3).
  const double axis_max = order == fd_order::second ? 4.0 : 16.0 / 3.0;
  const double inv_h2 = 1.0 / (grid.spacing * grid.spacing);
  return 0.5 * 3.0 * axis_max * inv_h2;
}

template void add_kinetic<float>(const grid3d&, fd_order,
                                 std::span<const std::complex<float>>,
                                 std::complex<float>,
                                 std::span<std::complex<float>>);
template void add_kinetic<double>(const grid3d&, fd_order,
                                  std::span<const std::complex<double>>,
                                  std::complex<double>,
                                  std::span<std::complex<double>>);
template void add_gradient<float>(const grid3d&, fd_order, int,
                                  std::span<const std::complex<float>>,
                                  std::complex<float>,
                                  std::span<std::complex<float>>);
template void add_gradient<double>(const grid3d&, fd_order, int,
                                   std::span<const std::complex<double>>,
                                   std::complex<double>,
                                   std::span<std::complex<double>>);
template void apply_local_column<float>(const grid3d&, fd_order, const float*,
                                        float, int, std::complex<float>,
                                        std::span<const std::complex<float>>,
                                        std::span<std::complex<float>>);
template void apply_local_column<double>(
    const grid3d&, fd_order, const double*, double, int, std::complex<double>,
    std::span<const std::complex<double>>, std::span<std::complex<double>>);

}  // namespace dcmesh::mesh
