// Tests for the LFD single-particle Hamiltonian.

#include "dcmesh/lfd/hamiltonian.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "../blas/heap_counter.hpp"
#include "dcmesh/common/rng.hpp"
#include "dcmesh/sched/config.hpp"

namespace dcmesh::lfd {
namespace {

using C = std::complex<double>;

matrix<C> random_state(std::size_t ngrid, std::size_t norb, unsigned seed) {
  xoshiro256 rng(seed);
  matrix<C> m(ngrid, norb);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  return m;
}

hamiltonian<double> make_h(const mesh::grid3d& grid, double a_field = 0.0) {
  std::vector<double> v(static_cast<std::size_t>(grid.size()));
  xoshiro256 rng(77);
  for (auto& x : v) x = rng.uniform(-0.5, 0.0);
  hamiltonian<double> h(grid, mesh::fd_order::fourth, std::move(v));
  h.set_field(a_field);
  return h;
}

TEST(Hamiltonian, IsHermitianWithField) {
  // <a|H b> == conj(<b|H a>) for arbitrary states, including the laser
  // coupling -iA d/dz (anti-Hermitian derivative times -i is Hermitian).
  const mesh::grid3d grid = mesh::grid3d::cubic(6, 0.9);
  auto h = make_h(grid, 0.37);
  const std::size_t n = static_cast<std::size_t>(grid.size());
  const auto a = random_state(n, 1, 1);
  const auto b = random_state(n, 1, 2);
  matrix<C> ha(n, 1), hb(n, 1);
  h.apply(a.view(), ha.view());
  h.apply(b.view(), hb.view());
  C a_hb{}, b_ha{};
  for (std::size_t i = 0; i < n; ++i) {
    a_hb += std::conj(a.data()[i]) * hb.data()[i];
    b_ha += std::conj(b.data()[i]) * ha.data()[i];
  }
  EXPECT_NEAR(std::abs(a_hb - std::conj(b_ha)), 0.0, 1e-10);
}

TEST(Hamiltonian, KineticOnlyOmitsPotentialAndField) {
  const mesh::grid3d grid = mesh::grid3d::cubic(6, 1.0);
  auto h = make_h(grid, 0.5);
  const std::size_t n = static_cast<std::size_t>(grid.size());
  // Constant state: kinetic part is exactly zero; full H gives (V + A^2/2).
  matrix<C> psi(n, 1), out(n, 1);
  for (std::size_t i = 0; i < n; ++i) psi.data()[i] = 1.0;
  h.apply_kinetic(psi.view(), out.view());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(std::abs(out.data()[i]), 0.0, 1e-12);
  }
  h.apply(psi.view(), out.view());
  const std::span<const double> v = h.potential();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(out.data()[i].real(), v[i] + 0.5 * 0.5 * 0.5, 1e-12);
    ASSERT_NEAR(out.data()[i].imag(), 0.0, 1e-12);
  }
}

TEST(Hamiltonian, FieldFreeMatchesKineticPlusPotential) {
  const mesh::grid3d grid = mesh::grid3d::cubic(5, 0.8);
  auto h = make_h(grid, 0.0);
  const std::size_t n = static_cast<std::size_t>(grid.size());
  const auto psi = random_state(n, 2, 3);
  matrix<C> full(n, 2), kin(n, 2);
  h.apply(psi.view(), full.view());
  h.apply_kinetic(psi.view(), kin.view());
  const std::span<const double> v = h.potential();
  for (std::size_t j = 0; j < 2; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const C expected = kin(i, j) + v[i] * psi(i, j);
      ASSERT_NEAR(std::abs(full(i, j) - expected), 0.0, 1e-12);
    }
  }
}

TEST(Hamiltonian, SpectralBoundDominatesRayleighQuotients) {
  const mesh::grid3d grid = mesh::grid3d::cubic(6, 0.7);
  auto h = make_h(grid, 0.2);
  const double bound = h.spectral_bound();
  const std::size_t n = static_cast<std::size_t>(grid.size());
  for (unsigned seed = 0; seed < 5; ++seed) {
    auto psi = random_state(n, 1, seed + 10);
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) norm += std::norm(psi.data()[i]);
    matrix<C> out(n, 1);
    h.apply(psi.view(), out.view());
    C rq{};
    for (std::size_t i = 0; i < n; ++i) {
      rq += std::conj(psi.data()[i]) * out.data()[i];
    }
    EXPECT_LE(std::abs(rq) / norm, bound);
  }
}

TEST(Hamiltonian, InvalidConstructionThrows) {
  const mesh::grid3d grid = mesh::grid3d::cubic(4, 1.0);
  EXPECT_THROW(hamiltonian<double>(grid, mesh::fd_order::second,
                                   std::vector<double>(7)),  // wrong size
               std::invalid_argument);
  EXPECT_THROW(
      hamiltonian<double>(grid, mesh::fd_order::second,
                          std::vector<double>(64), /*axis=*/3),
      std::invalid_argument);
}

TEST(Hamiltonian, SetPotentialValidatesAndUpdates) {
  const mesh::grid3d grid = mesh::grid3d::cubic(4, 1.0);
  hamiltonian<double> h(grid, mesh::fd_order::second,
                        std::vector<double>(64, -1.0));
  EXPECT_THROW(h.set_potential(std::vector<double>(63)),
               std::invalid_argument);
  h.set_potential(std::vector<double>(64, -2.0));
  EXPECT_EQ(h.potential()[0], -2.0);
}

// The step applies H every QD step: once warm, an apply makes no heap
// allocation on a serial or a pooled team.
TEST(Hamiltonian, WarmApplyKineticAllocatesNothing) {
  const mesh::grid3d grid = mesh::grid3d::cubic(8, 1.0);
  const auto h = make_h(grid, 0.2);
  const std::size_t n = static_cast<std::size_t>(grid.size());
  const auto psi = random_state(n, 6, 5);
  matrix<C> out(n, 6);
  for (const int threads : {1, 3}) {
    sched::set_thread_count(threads);
    h.apply_kinetic(psi.view(), out.view());  // warm the team
    const std::uint64_t before = test::heap_allocations();
    h.apply_kinetic(psi.view(), out.view());
    EXPECT_EQ(test::heap_allocations() - before, 0u) << threads << " threads";
  }
  sched::set_thread_count(0);
}

}  // namespace
}  // namespace dcmesh::lfd
