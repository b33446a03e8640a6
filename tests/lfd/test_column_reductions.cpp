// current_density and energy_local run their columns on the kernel team
// (on a mesh above the fork threshold, inline below it) and sum the
// column partials in column order: the result must be the serial column
// loop's, bit for bit, on a 1-thread and a 3-thread team, on both sides
// of the threshold.

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <vector>

#include "dcmesh/common/rng.hpp"
#include "dcmesh/lfd/calc_energy.hpp"
#include "dcmesh/lfd/current.hpp"
#include "dcmesh/sched/config.hpp"
#include "column_sum.hpp"

namespace dcmesh::lfd {
namespace {

/// The serial current_density loop the team version replaced.
template <typename R>
double serial_current(const mesh::grid3d& grid, mesh::fd_order order,
                      int axis, const matrix<std::complex<R>>& psi,
                      std::span<const double> occ, double a, double dv) {
  using C = std::complex<R>;
  const std::size_t ngrid = psi.rows();
  const std::size_t norb = psi.cols();

  double paramagnetic = 0.0;
  double electrons = 0.0;
  std::vector<C> grad(ngrid);
  for (std::size_t j = 0; j < norb; ++j) {
    if (occ[j] == 0.0) continue;
    const C* col = psi.data() + j * ngrid;
    std::fill(grad.begin(), grad.end(), C(0));
    mesh::add_gradient<R>(grid, order, axis, {col, ngrid}, C(1),
                          {grad.data(), ngrid});
    double im_sum = 0.0;
    double norm2 = 0.0;
    for (std::size_t g = 0; g < ngrid; ++g) {
      im_sum += static_cast<double>(col[g].real()) * grad[g].imag() -
                static_cast<double>(col[g].imag()) * grad[g].real();
      norm2 += static_cast<double>(col[g].real()) * col[g].real() +
               static_cast<double>(col[g].imag()) * col[g].imag();
    }
    paramagnetic += occ[j] * im_sum * dv;
    electrons += occ[j] * norm2 * dv;
  }
  const double volume = grid.volume();
  return (paramagnetic + electrons * a) / volume;
}

/// The serial energy_local loop the team version replaced.
template <typename R>
double serial_local(std::span<const R> v,
                    const matrix<std::complex<R>>& psi,
                    std::span<const double> occ, double dv) {
  using C = std::complex<R>;
  const std::size_t ngrid = psi.rows();
  const std::size_t norb = psi.cols();
  double epot = 0.0;
  for (std::size_t j = 0; j < norb; ++j) {
    if (occ[j] == 0.0) continue;
    const C* col = psi.data() + j * ngrid;
    double e = 0.0;
    for (std::size_t gidx = 0; gidx < ngrid; ++gidx) {
      const double density =
          static_cast<double>(col[gidx].real()) * col[gidx].real() +
          static_cast<double>(col[gidx].imag()) * col[gidx].imag();
      e += static_cast<double>(v[gidx]) * density;
    }
    epot += occ[j] * e * dv;
  }
  return epot;
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

template <typename R>
void check_team_matches_serial(int mesh_n) {
  const mesh::grid3d grid = mesh::grid3d::cubic(mesh_n, 0.7);
  const auto ngrid = static_cast<std::size_t>(grid.size());
  const std::size_t norb = 7;
  xoshiro256 rng(2024);
  matrix<std::complex<R>> psi(ngrid, norb);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    psi.data()[i] = {static_cast<R>(rng.uniform(-1.0, 1.0)),
                     static_cast<R>(rng.uniform(-1.0, 1.0))};
  }
  std::vector<double> v(ngrid);
  for (auto& x : v) x = rng.uniform(-2.0, 0.5);
  const hamiltonian<R> h(grid, mesh::fd_order::fourth, v);
  // Unoccupied columns in the middle and at the end are skipped.
  const std::vector<double> occ{2.0, 2.0, 0.0, 1.5, 0.25, 2.0, 0.0};
  const double a = 0.3;
  const double dv = grid.dv();

  const double current_ref =
      serial_current<R>(grid, mesh::fd_order::fourth, 1, psi, occ, a, dv);
  const double local_ref =
      serial_local<R>(h.potential(), psi, occ, dv);
  for (const int team : {1, 3}) {
    sched::set_thread_count(team);
    const double current = current_density<R>(grid, mesh::fd_order::fourth,
                                              1, psi, occ, a, dv);
    EXPECT_TRUE(same_bits(current, current_ref))
        << "team=" << team << " " << current << " vs " << current_ref;
    std::vector<double> partial(occ.size());
    const double local = energy_local<R>(h, psi, occ, dv, partial);
    EXPECT_TRUE(same_bits(local, local_ref))
        << "team=" << team << " " << local << " vs " << local_ref;
  }
  sched::set_thread_count(0);
}

// 7 columns of 12^3 points reduce inline, of 20^3 on the team.
static_assert(7 * 12 * 12 * 12 < detail::kTeamMinPoints);
static_assert(7 * 20 * 20 * 20 >= detail::kTeamMinPoints);

TEST(ColumnReductions, TeamMatchesSerialLoopFloat) {
  check_team_matches_serial<float>(12);
  check_team_matches_serial<float>(20);
}

TEST(ColumnReductions, TeamMatchesSerialLoopDouble) {
  check_team_matches_serial<double>(12);
  check_team_matches_serial<double>(20);
}

}  // namespace
}  // namespace dcmesh::lfd
