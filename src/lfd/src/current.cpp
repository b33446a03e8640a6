#include "dcmesh/lfd/current.hpp"

#include <vector>

#include "column_sum.hpp"

namespace dcmesh::lfd {

template <typename R>
double current_density(const mesh::grid3d& grid, mesh::fd_order order,
                       int axis, const matrix<std::complex<R>>& psi,
                       std::span<const double> occ, double a, double dv) {
  using C = std::complex<R>;
  const std::size_t ngrid = psi.rows();
  const std::size_t norb = psi.cols();

  // Each occupied column's two mesh reductions run on the kernel team on
  // a large enough mesh (for_each_column), with the gradient in a
  // per-thread scratch; the column sums below are taken in column order,
  // so the result does not depend on the team.
  // The two partials of a column are stored norb apart: stored side by
  // side, GCC pairs the two reduction chains into one vector chain with
  // shuffles, about 1.8x slower for the same bits.
  std::vector<double> partial(2 * norb);
  const auto reduce_column = [&](std::size_t j) {
    if (occ[j] == 0.0) return;
    thread_local std::vector<C> grad;
    grad.assign(ngrid, C(0));
    const C* col = psi.data() + j * ngrid;
    mesh::add_gradient<R>(grid, order, axis, {col, ngrid}, C(1),
                          {grad.data(), ngrid});
    double im_sum = 0.0;
    double norm2 = 0.0;
    for (std::size_t g = 0; g < ngrid; ++g) {
      // Im(conj(psi) * dpsi)
      im_sum += static_cast<double>(col[g].real()) * grad[g].imag() -
                static_cast<double>(col[g].imag()) * grad[g].real();
      norm2 += static_cast<double>(col[g].real()) * col[g].real() +
               static_cast<double>(col[g].imag()) * col[g].imag();
    }
    partial[j] = im_sum;
    partial[norb + j] = norm2;
  };
  detail::for_each_column(norb, ngrid, reduce_column);
  double paramagnetic = 0.0;
  double electrons = 0.0;
  for (std::size_t j = 0; j < norb; ++j) {
    if (occ[j] == 0.0) continue;
    paramagnetic = detail::add_column(paramagnetic, occ[j], partial[j], dv);
    electrons = detail::add_column(electrons, occ[j], partial[norb + j], dv);
  }
  const double volume = grid.volume();
  return (paramagnetic + electrons * a) / volume;
}

template double current_density<float>(const mesh::grid3d&, mesh::fd_order,
                                       int, const matrix<std::complex<float>>&,
                                       std::span<const double>, double,
                                       double);
template double current_density<double>(const mesh::grid3d&, mesh::fd_order,
                                        int,
                                        const matrix<std::complex<double>>&,
                                        std::span<const double>, double,
                                        double);

}  // namespace dcmesh::lfd
