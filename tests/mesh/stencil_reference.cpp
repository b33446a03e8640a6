// stencil_reference.cpp — the point-by-point stencils as they were before
// the row-pointer rewrite, unchanged, as the oracle of tests/mesh.

#include "stencil_reference.hpp"

#include <array>
#include <cmath>

namespace dcmesh::mesh::reference {
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

/// Neighbour linear-index offsets with periodic wrap along one axis.
struct axis_geometry {
  std::int64_t n;       ///< Points along the axis.
  std::int64_t stride;  ///< Linear-index stride along the axis.
};

constexpr axis_geometry axis_geom(const grid3d& g, int axis) noexcept {
  switch (axis) {
    case 0: return {g.nx, 1};
    case 1: return {g.ny, g.nx};
    default: return {g.nz, g.nx * g.ny};
  }
}

}  // namespace

template <typename R>
void add_kinetic(const grid3d& grid, fd_order order,
                 std::span<const std::complex<R>> psi, std::complex<R> coeff,
                 std::span<std::complex<R>> out) {
  const stencil_taps taps = lap_taps(order);
  const double inv_h2 = 1.0 / (grid.spacing * grid.spacing);
  // -1/2 nabla^2 folded into the tap weights.
  const std::complex<R> w_center =
      coeff * static_cast<R>(-0.5 * 3.0 * taps.center * inv_h2);
  std::array<std::complex<R>, 2> w_off;
  for (int d = 1; d <= taps.radius; ++d) {
    w_off[static_cast<std::size_t>(d - 1)] =
        coeff * static_cast<R>(-0.5 * taps.off[static_cast<std::size_t>(d - 1)] * inv_h2);
  }

  const std::int64_t nx = grid.nx, ny = grid.ny, nz = grid.nz;
  for (std::int64_t iz = 0; iz < nz; ++iz) {
    for (std::int64_t iy = 0; iy < ny; ++iy) {
      const std::int64_t row = grid.index(0, iy, iz);
      for (std::int64_t ix = 0; ix < nx; ++ix) {
        const std::int64_t idx = row + ix;
        std::complex<R> acc = w_center * psi[static_cast<std::size_t>(idx)];
        for (int d = 1; d <= taps.radius; ++d) {
          const auto w = w_off[static_cast<std::size_t>(d - 1)];
          // x neighbours
          const std::int64_t xm = row + grid3d::wrap(ix - d, nx);
          const std::int64_t xp = row + grid3d::wrap(ix + d, nx);
          // y neighbours
          const std::int64_t ym =
              grid.index(0, grid3d::wrap(iy - d, ny), iz) + ix;
          const std::int64_t yp =
              grid.index(0, grid3d::wrap(iy + d, ny), iz) + ix;
          // z neighbours
          const std::int64_t zm =
              grid.index(0, iy, grid3d::wrap(iz - d, nz)) + ix;
          const std::int64_t zp =
              grid.index(0, iy, grid3d::wrap(iz + d, nz)) + ix;
          acc += w * (psi[static_cast<std::size_t>(xm)] +
                      psi[static_cast<std::size_t>(xp)] +
                      psi[static_cast<std::size_t>(ym)] +
                      psi[static_cast<std::size_t>(yp)] +
                      psi[static_cast<std::size_t>(zm)] +
                      psi[static_cast<std::size_t>(zp)]);
        }
        out[static_cast<std::size_t>(idx)] += acc;
      }
    }
  }
}

template <typename R>
void add_gradient(const grid3d& grid, fd_order order, int axis,
                  std::span<const std::complex<R>> psi, std::complex<R> coeff,
                  std::span<std::complex<R>> out) {
  const stencil_taps taps = grad_taps(order);
  const double inv_h = 1.0 / grid.spacing;
  const axis_geometry geom = axis_geom(grid, axis);
  std::array<std::complex<R>, 2> w_off;
  for (int d = 1; d <= taps.radius; ++d) {
    w_off[static_cast<std::size_t>(d - 1)] =
        coeff *
        static_cast<R>(taps.off[static_cast<std::size_t>(d - 1)] * inv_h);
  }

  const std::int64_t total = grid.size();
  for (std::int64_t idx = 0; idx < total; ++idx) {
    // Coordinate along the differentiated axis.
    const std::int64_t coord = (idx / geom.stride) % geom.n;
    std::complex<R> acc{};
    for (int d = 1; d <= taps.radius; ++d) {
      const auto w = w_off[static_cast<std::size_t>(d - 1)];
      const std::int64_t cm = grid3d::wrap(coord - d, geom.n);
      const std::int64_t cp = grid3d::wrap(coord + d, geom.n);
      const std::int64_t base = idx - coord * geom.stride;
      acc += w * (psi[static_cast<std::size_t>(base + cp * geom.stride)] -
                  psi[static_cast<std::size_t>(base + cm * geom.stride)]);
    }
    out[static_cast<std::size_t>(idx)] += acc;
  }
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

}  // namespace dcmesh::mesh::reference
