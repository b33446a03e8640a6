#include "dcmesh/lfd/hamiltonian.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dcmesh/sched/config.hpp"

namespace dcmesh::lfd {

template <typename R>
hamiltonian<R>::hamiltonian(mesh::grid3d grid, mesh::fd_order order,
                            std::vector<double> v_loc, int polarization_axis)
    : grid_(grid), order_(order), axis_(polarization_axis) {
  if (static_cast<std::int64_t>(v_loc.size()) != grid.size()) {
    throw std::invalid_argument("hamiltonian: potential size != grid size");
  }
  if (axis_ < 0 || axis_ > 2) {
    throw std::invalid_argument("hamiltonian: bad polarization axis");
  }
  set_potential(std::move(v_loc));
}

template <typename R>
void hamiltonian<R>::set_potential(std::vector<double> v_loc) {
  if (static_cast<std::int64_t>(v_loc.size()) != grid_.size()) {
    throw std::invalid_argument("hamiltonian: potential size != grid size");
  }
  v_.resize(v_loc.size());
  v_min_ = v_max_ = v_loc.empty() ? 0.0 : v_loc[0];
  for (std::size_t i = 0; i < v_loc.size(); ++i) {
    v_[i] = static_cast<R>(v_loc[i]);
    v_min_ = std::min(v_min_, v_loc[i]);
    v_max_ = std::max(v_max_, v_loc[i]);
  }
}

template <typename R>
void hamiltonian<R>::apply_column(part which,
                                  std::span<const std::complex<R>> psi,
                                  std::span<std::complex<R>> out) const {
  // (V + A^2/2) .* psi, then T psi, then -i A d/dz psi (skipped at A = 0),
  // in one pass per point.
  const bool full = which == part::full;
  const R a = which == part::kinetic ? R(0) : static_cast<R>(a_field_);
  mesh::apply_local_column<R>(
      grid_, order_, full ? v_.data() : nullptr,
      full ? static_cast<R>(0.5 * a_field_ * a_field_) : R(0), axis_,
      std::complex<R>{0, -a}, psi, out);
}

template <typename R>
void hamiltonian<R>::apply_columns(part which,
                                   const_matrix_view<std::complex<R>> psi,
                                   matrix_view<std::complex<R>> out) const {
  // Columns are independent, so they run on the scheduler's worker team.
  // The team body captures one reference, so it fits std::function's
  // inline buffer and an apply allocates nothing.
  const std::size_t ngrid = psi.rows;
  const auto column = [&](long j) {
    const auto col = static_cast<std::size_t>(j);
    apply_column(which, {psi.col(col), ngrid}, {out.col(col), ngrid});
  };
  sched::team_parallel_for(static_cast<long>(psi.cols),
                           [&column](long j) { column(j); });
}

template <typename R>
void hamiltonian<R>::apply(const_matrix_view<std::complex<R>> psi,
                           matrix_view<std::complex<R>> out) const {
  apply_columns(part::full, psi, out);
}

template <typename R>
void hamiltonian<R>::apply_kinetic(const_matrix_view<std::complex<R>> psi,
                                   matrix_view<std::complex<R>> out) const {
  apply_columns(part::kinetic, psi, out);
}

template <typename R>
void hamiltonian<R>::apply_kinetic_field(
    const_matrix_view<std::complex<R>> psi,
    matrix_view<std::complex<R>> out) const {
  apply_columns(part::kinetic_field, psi, out);
}

template <typename R>
double hamiltonian<R>::spectral_bound() const noexcept {
  const double kinetic = mesh::kinetic_spectral_radius(grid_, order_);
  const double field = std::abs(a_field_);
  // |A p| <= A * pi/h per axis (discrete gradient bound), plus A^2/2.
  const double field_term =
      field * 3.141592653589793 / grid_.spacing + 0.5 * field * field;
  return kinetic + std::max(std::abs(v_min_), std::abs(v_max_)) + field_term;
}

template <typename R>
void strang_phase(const hamiltonian<R>& h, double dt,
                  std::span<std::complex<R>> phase) {
  const std::span<const R> v = h.potential();
  const double half_a2 = 0.5 * h.field() * h.field();
  for (std::size_t g = 0; g < phase.size(); ++g) {
    const double angle = -0.5 * dt * (static_cast<double>(v[g]) + half_a2);
    phase[g] = std::complex<R>(static_cast<R>(std::cos(angle)),
                               static_cast<R>(std::sin(angle)));
  }
}

template <typename R>
void multiply_phase(std::span<std::complex<R>> psi,
                    std::span<const std::complex<R>> phase) {
  for (std::size_t g = 0; g < psi.size(); ++g) psi[g] *= phase[g];
}

template void strang_phase<float>(const hamiltonian<float>&, double,
                                  std::span<std::complex<float>>);
template void strang_phase<double>(const hamiltonian<double>&, double,
                                   std::span<std::complex<double>>);
template void multiply_phase<float>(std::span<std::complex<float>>,
                                    std::span<const std::complex<float>>);
template void multiply_phase<double>(std::span<std::complex<double>>,
                                     std::span<const std::complex<double>>);
template class hamiltonian<float>;
template class hamiltonian<double>;

}  // namespace dcmesh::lfd
