// Bit-identity of the row-pointer stencils against the point-by-point
// oracle (stencil_reference.cpp): every grid shape, including axes shorter
// than the stencil (n < 2 radius + 1) and rows longer than one sweep
// chunk, both orders, all three gradient axes, float and double, with
// data already in `out`.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dcmesh/common/rng.hpp"
#include "dcmesh/mesh/stencil.hpp"
#include "stencil_reference.hpp"

namespace dcmesh::mesh {
namespace {

const grid3d kGrids[] = {
    {1, 1, 1, 0.9},     {2, 3, 1, 0.7},     {3, 3, 3, 0.5},
    {5, 7, 9, 0.45},    {4, 16, 2, 0.6},    {8, 8, 8, 0.92},
    {16, 16, 16, 0.46}, {18, 18, 18, 0.41},
    {130, 3, 2, 0.3},   {300, 2, 1, 0.2},  // rows of several sweep chunks
};
constexpr fd_order kOrders[] = {fd_order::second, fd_order::fourth};

template <typename R>
std::vector<std::complex<R>> random_field(const grid3d& g,
                                          std::uint64_t seed) {
  xoshiro256 rng(seed);
  std::vector<std::complex<R>> v(static_cast<std::size_t>(g.size()));
  for (auto& x : v) {
    x = {static_cast<R>(rng.uniform(-1, 1)),
         static_cast<R>(rng.uniform(-1, 1))};
  }
  return v;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

std::string describe(const grid3d& g, fd_order order, const char* what) {
  return std::to_string(g.nx) + "x" + std::to_string(g.ny) + "x" +
         std::to_string(g.nz) +
         (order == fd_order::second ? " 2nd " : " 4th ") + what;
}

/// The coefficients call sites pass: C(1) (kinetic in H, current density),
/// C{0, -a} (the field coupling), and a real non-unit value.
template <typename R>
std::vector<std::complex<R>> call_site_coefficients() {
  return {std::complex<R>(1), std::complex<R>(0, R(-0.37)),
          std::complex<R>(R(0.61))};
}

template <typename R>
void sweep_against_oracle() {
  for (const grid3d& g : kGrids) {
    const auto psi = random_field<R>(g, 11);
    const auto out0 = random_field<R>(g, 12);  // nonzero out on entry
    for (const fd_order order : kOrders) {
      for (const auto coeff : call_site_coefficients<R>()) {
        auto want = out0, got = out0;
        reference::add_kinetic<R>(g, order, psi, coeff, want);
        add_kinetic<R>(g, order, psi, coeff, got);
        EXPECT_TRUE(same_bits(want, got))
            << describe(g, order, "kinetic") << " coeff " << coeff;
        for (int axis = 0; axis < 3; ++axis) {
          want = out0;
          got = out0;
          reference::add_gradient<R>(g, order, axis, psi, coeff, want);
          add_gradient<R>(g, order, axis, psi, coeff, got);
          EXPECT_TRUE(same_bits(want, got))
              << describe(g, order, "gradient") << " axis " << axis
              << " coeff " << coeff;
        }
      }
    }
  }
}

TEST(StencilIdentity, MatchesPointOracleFloat) {
  sweep_against_oracle<float>();
}

TEST(StencilIdentity, MatchesPointOracleDouble) {
  sweep_against_oracle<double>();
}

template <typename R>
void fused_against_oracle() {
  using C = std::complex<R>;
  for (const grid3d& g : kGrids) {
    const auto psi = random_field<R>(g, 21);
    std::vector<R> diag(psi.size());
    xoshiro256 rng(22);
    for (auto& d : diag) d = static_cast<R>(rng.uniform(-0.5, 0.0));
    const R shift = R(0.045);
    for (const fd_order order : kOrders) {
      for (const bool with_diag : {false, true}) {
        for (int axis = 0; axis < 3; ++axis) {
          for (const R a : {R(0), R(0.3)}) {
            // The three passes the fused column replaces.
            std::vector<C> want(psi.size());
            for (std::size_t i = 0; i < psi.size(); ++i) {
              want[i] = with_diag ? (diag[i] + shift) * psi[i] : C(0);
            }
            reference::add_kinetic<R>(g, order, psi, C(1), want);
            if (a != R(0)) {
              reference::add_gradient<R>(g, order, axis, psi, C{0, -a},
                                         want);
            }
            std::vector<C> got(psi.size(), C(7, 7));  // overwritten
            apply_local_column<R>(g, order,
                                  with_diag ? diag.data() : nullptr,
                                  with_diag ? shift : R(0), axis, C{0, -a},
                                  psi, got);
            EXPECT_TRUE(same_bits(want, got))
                << describe(g, order, "fused") << " diag " << with_diag
                << " axis " << axis << " a " << a;
          }
        }
      }
    }
  }
}

TEST(StencilIdentity, FusedColumnMatchesOracleThreePassesFloat) {
  fused_against_oracle<float>();
}

TEST(StencilIdentity, FusedColumnMatchesOracleThreePassesDouble) {
  fused_against_oracle<double>();
}

template <typename R>
void mixed_coefficient_within_rounding() {
  // No call site passes a coefficient with both parts nonzero.  For one,
  // the oracle's loop (compiled with contraction on) fuses some of its
  // complex products' multiplies into FMAs and the row kernel (compiled
  // with -ffp-contract=off) fuses none, so the kinetic stencil and the
  // 2nd-order gradient differ in the last bits.  Pinned here: the
  // difference stays within a few rounding units of the largest term.
  const std::complex<R> coeff(R(0.3), R(-0.7));
  const R eps = std::numeric_limits<R>::epsilon();
  for (const grid3d& g : kGrids) {
    const auto psi = random_field<R>(g, 31);
    const auto out0 = random_field<R>(g, 32);
    const R scale = static_cast<R>(1.0 / (g.spacing * g.spacing));
    for (const fd_order order : kOrders) {
      auto want = out0, got = out0;
      reference::add_kinetic<R>(g, order, psi, coeff, want);
      add_kinetic<R>(g, order, psi, coeff, got);
      for (int axis = 0; axis < 3; ++axis) {
        reference::add_gradient<R>(g, order, axis, psi, coeff, want);
        add_gradient<R>(g, order, axis, psi, coeff, got);
      }
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_LE(std::abs(want[i] - got[i]), 32 * eps * (scale + 1))
            << describe(g, order, "mixed coefficient") << " point " << i;
      }
    }
  }
}

TEST(StencilIdentity, MixedCoefficientWithinRoundingFloat) {
  mixed_coefficient_within_rounding<float>();
}

TEST(StencilIdentity, MixedCoefficientWithinRoundingDouble) {
  mixed_coefficient_within_rounding<double>();
}

}  // namespace
}  // namespace dcmesh::mesh
