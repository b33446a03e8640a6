#pragma once
// hamiltonian.hpp — the LFD single-particle Hamiltonian.
//
// H = -1/2 nabla^2 + V_loc(r) - i A(t) d/dz + 1/2 A(t)^2
// (velocity-gauge light coupling in the dipole approximation; z is the
// polarization axis).  Applied column-by-column through the mesh stencils,
// one pass per point (mesh::apply_local_column); templated over the real
// scalar so FP32 and FP64 LFD share one implementation.  The *nonlocal*
// part of the potential is handled separately by nlp_prop (that is the
// point of the paper).

#include <complex>
#include <span>
#include <vector>

#include "dcmesh/common/matrix.hpp"
#include "dcmesh/mesh/grid.hpp"
#include "dcmesh/mesh/stencil.hpp"

namespace dcmesh::lfd {

/// Local Hamiltonian on the mesh at a fixed field value A.
template <typename R>
class hamiltonian {
 public:
  hamiltonian(mesh::grid3d grid, mesh::fd_order order,
              std::vector<double> v_loc, int polarization_axis = 2);

  /// Which part of H an apply takes.
  enum class part {
    full,           ///< H (apply)
    kinetic,        ///< -1/2 nabla^2 (apply_kinetic)
    kinetic_field,  ///< -1/2 nabla^2 - i A d/dz (apply_kinetic_field)
  };

  /// Set the instantaneous vector potential magnitude A(t).
  void set_field(double a) noexcept { a_field_ = a; }
  [[nodiscard]] double field() const noexcept { return a_field_; }

  /// Replace the local potential (after ions move).
  void set_potential(std::vector<double> v_loc);

  /// out = H * psi for every column (out is overwritten).
  void apply(const_matrix_view<std::complex<R>> psi,
             matrix_view<std::complex<R>> out) const;

  /// out = (-1/2 nabla^2) * psi only (for the kinetic-energy GEMM).
  void apply_kinetic(const_matrix_view<std::complex<R>> psi,
                     matrix_view<std::complex<R>> out) const;

  /// out = (-1/2 nabla^2 - i A d/dz) * psi — the non-diagonal part of H,
  /// used by the Strang propagator (the diagonal part V + A^2/2 is applied
  /// as an exact phase).
  void apply_kinetic_field(const_matrix_view<std::complex<R>> psi,
                           matrix_view<std::complex<R>> out) const;

  /// out = part(H) * psi for one column of grid().size() points (out is
  /// overwritten).  The matrix applies run this on every column, on the
  /// scheduler's worker team; a caller that already owns a column (the
  /// column-parallel Taylor recurrence) runs it directly.
  void apply_column(part which, std::span<const std::complex<R>> psi,
                    std::span<std::complex<R>> out) const;

  /// Upper bound on ||H|| (stability: dt * bound should stay < ~1 for the
  /// 4th-order Taylor propagator).
  [[nodiscard]] double spectral_bound() const noexcept;

  [[nodiscard]] const mesh::grid3d& grid() const noexcept { return grid_; }
  [[nodiscard]] mesh::fd_order order() const noexcept { return order_; }
  [[nodiscard]] int polarization_axis() const noexcept { return axis_; }
  [[nodiscard]] std::span<const R> potential() const noexcept {
    return {v_.data(), v_.size()};
  }

 private:
  void apply_columns(part which, const_matrix_view<std::complex<R>> psi,
                     matrix_view<std::complex<R>> out) const;

  mesh::grid3d grid_;
  mesh::fd_order order_;
  std::vector<R> v_;       ///< Local potential cast to the LFD precision.
  double v_min_ = 0.0, v_max_ = 0.0;
  int axis_;
  double a_field_ = 0.0;
};

/// The Strang propagator's diagonal half step at h's field, one factor
/// per mesh point: phase = exp(-i (V + A^2/2) dt/2).
template <typename R>
void strang_phase(const hamiltonian<R>& h, double dt,
                  std::span<std::complex<R>> phase);

/// psi .*= phase over one column.
///
/// Both round however the compiler lowers them where they are compiled
/// (sin and cos, a general complex product), so they are defined out of
/// line, in hamiltonian.cpp: the engine and any serial composition checked
/// against it then share one compiled definition.
template <typename R>
void multiply_phase(std::span<std::complex<R>> psi,
                    std::span<const std::complex<R>> phase);

}  // namespace dcmesh::lfd
