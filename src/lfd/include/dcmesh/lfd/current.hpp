#pragma once
// current.hpp — average current density javg (paper's third observable).
//
// In the velocity gauge the physical current density averaged over the
// supercell is j = (1/V) sum_j f_j <psi_j| p + A |psi_j>
//             = (1/V) [ sum_j f_j Int Im(psi_j* grad psi_j) dV + N_el A ].
// The paper notes javg is "not directly computed through BLAS, but is still
// influenced by computations within BLAS calls" — the same is true here:
// it is a stencil + mesh reduction over the BLAS-corrected wave functions.

#include <complex>
#include <span>
#include <vector>

#include "dcmesh/common/matrix.hpp"
#include "dcmesh/mesh/grid.hpp"
#include "dcmesh/mesh/stencil.hpp"

namespace dcmesh::lfd {

/// Average current density (atomic units) along `axis` at field value
/// `a`, over caller-owned buffers: each occupied column's gradient goes to
/// the same column of `grad` (ngrid x norb), and its two mesh reductions
/// to `partial` (size 2 norb).
template <typename R>
[[nodiscard]] double current_density(const mesh::grid3d& grid,
                                     mesh::fd_order order, int axis,
                                     const matrix<std::complex<R>>& psi,
                                     std::span<const double> occ, double a,
                                     double dv, matrix<std::complex<R>>& grad,
                                     std::span<double> partial);

/// The same over buffers it allocates.
template <typename R>
[[nodiscard]] double current_density(const mesh::grid3d& grid,
                                     mesh::fd_order order, int axis,
                                     const matrix<std::complex<R>>& psi,
                                     std::span<const double> occ, double a,
                                     double dv) {
  matrix<std::complex<R>> grad(psi.rows(), psi.cols());
  std::vector<double> partial(2 * psi.cols());
  return current_density<R>(grid, order, axis, psi, occ, a, dv, grad,
                            partial);
}

}  // namespace dcmesh::lfd
