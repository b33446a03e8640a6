#pragma once
// stencil_reference.hpp — the point-by-point stencils, kept as a test
// oracle.
//
// Before the row-pointer stencils, add_kinetic computed its six wrapped
// neighbour indices per point through grid3d::wrap, and add_gradient
// recovered each point's coordinate with a divide and a modulo.  The
// library's stencils must stay bit-identical to that arithmetic for every
// coefficient a call site passes (real, or purely imaginary); these
// definitions are the other side of that comparison and are compiled into
// test_mesh only.

#include <complex>
#include <span>

#include "dcmesh/mesh/stencil.hpp"

namespace dcmesh::mesh::reference {

/// out += coeff * (-1/2) nabla^2 psi, one wrapped index per neighbour.
template <typename R>
void add_kinetic(const grid3d& grid, fd_order order,
                 std::span<const std::complex<R>> psi, std::complex<R> coeff,
                 std::span<std::complex<R>> out);

/// out += coeff * d(psi)/d(axis), one divide and modulo per point.
template <typename R>
void add_gradient(const grid3d& grid, fd_order order, int axis,
                  std::span<const std::complex<R>> psi, std::complex<R> coeff,
                  std::span<std::complex<R>> out);

}  // namespace dcmesh::mesh::reference
