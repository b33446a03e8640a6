#pragma once
// stencil.hpp — finite-difference operators on the periodic mesh.
//
// The LFD propagator applies the kinetic operator -1/2 nabla^2 and the
// velocity-gauge field coupling A.grad through central-difference stencils.
// Both 2nd- and 4th-order variants are provided; DCMESH-like accuracy runs
// use 4th order.  Operators act on one orbital (a column of the
// wave-function matrix) at a time and are templated over the scalar so the
// FP32 and FP64 LFD variants share code.  `psi` and `out` must not
// overlap.

#include <complex>
#include <span>

#include "dcmesh/mesh/grid.hpp"

namespace dcmesh::mesh {

/// Finite-difference order of accuracy.
enum class fd_order { second, fourth };

/// out += coeff * (-1/2) nabla^2 psi on the periodic grid.
/// `psi` and `out` hold grid.size() complex values.
template <typename R>
void add_kinetic(const grid3d& grid, fd_order order,
                 std::span<const std::complex<R>> psi, std::complex<R> coeff,
                 std::span<std::complex<R>> out);

/// out += coeff * d(psi)/d(axis) (central difference, periodic).
/// axis: 0 = x, 1 = y, 2 = z.
template <typename R>
void add_gradient(const grid3d& grid, fd_order order, int axis,
                  std::span<const std::complex<R>> psi, std::complex<R> coeff,
                  std::span<std::complex<R>> out);

/// The local Hamiltonian's mesh part on one column, one pass per point:
///   out = (diag + shift) .* psi           (zero when diag is null)
///       + (-1/2) nabla^2 psi
///       + grad_coeff * d(psi)/d(axis)     (skipped when grad_coeff == 0)
/// Bit-identical to the three passes it fuses: that diagonal fill, then
/// add_kinetic with coeff 1, then add_gradient with grad_coeff.
template <typename R>
void apply_local_column(const grid3d& grid, fd_order order, const R* diag,
                        R shift, int axis, std::complex<R> grad_coeff,
                        std::span<const std::complex<R>> psi,
                        std::span<std::complex<R>> out);

/// Largest eigenvalue of the discrete kinetic operator (stability bound
/// for explicit time stepping: need dt * lambda_max well below the Taylor
/// stability radius).
[[nodiscard]] double kinetic_spectral_radius(const grid3d& grid,
                                             fd_order order) noexcept;

}  // namespace dcmesh::mesh
