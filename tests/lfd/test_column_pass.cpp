// The fused column pass and the column-parallel Taylor recurrence, checked
// bit for bit against the compositions they replace: the three-pass
// H apply (diagonal fill, kinetic stencil, field gradient) and a Taylor
// step that applies the operator to every column before each serial
// term update.  Each check runs on a one-thread team and on a team of
// three.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "dcmesh/common/rng.hpp"
#include "dcmesh/lfd/engine.hpp"
#include "dcmesh/lfd/hamiltonian.hpp"
#include "dcmesh/lfd/init.hpp"
#include "dcmesh/lfd/nlp_prop.hpp"
#include "dcmesh/lfd/potential.hpp"
#include "dcmesh/qxmd/supercell.hpp"
#include "dcmesh/sched/config.hpp"

namespace dcmesh::lfd {
namespace {

template <typename T>
matrix<T> copy_of(const matrix<T>& m) {
  matrix<T> out(m.rows(), m.cols());
  std::copy_n(m.data(), m.size(), out.data());
  return out;
}

template <typename T>
bool same_bits(const matrix<T>& a, const matrix<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Runs the test body on a one-thread team, then on a team of three.
class ColumnTeam : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { sched::set_thread_count(GetParam()); }
  void TearDown() override { sched::set_thread_count(0); }
};

template <typename R>
using part = typename hamiltonian<R>::part;

/// out = part(H) psi as three passes per column: the diagonal fill, then
/// add_kinetic, then add_gradient when the field is on.
template <typename R>
matrix<std::complex<R>> three_pass(const hamiltonian<R>& h, part<R> which,
                                   const matrix<std::complex<R>>& psi) {
  using C = std::complex<R>;
  const std::size_t ngrid = psi.rows();
  const std::span<const R> v = h.potential();
  const double a_field = which == part<R>::kinetic ? 0.0 : h.field();
  const R a = static_cast<R>(a_field);
  const R shift = static_cast<R>(0.5 * h.field() * h.field());
  matrix<C> out(ngrid, psi.cols());
  for (std::size_t j = 0; j < psi.cols(); ++j) {
    const std::span<const C> in{psi.data() + j * ngrid, ngrid};
    const std::span<C> dst{out.data() + j * ngrid, ngrid};
    for (std::size_t g = 0; g < ngrid; ++g) {
      dst[g] = which == part<R>::full ? (v[g] + shift) * in[g] : C(0);
    }
    mesh::add_kinetic<R>(h.grid(), h.order(), in, C(1), dst);
    if (a != R(0)) {
      mesh::add_gradient<R>(h.grid(), h.order(), h.polarization_axis(), in,
                            C{0, -a}, dst);
    }
  }
  return out;
}

template <typename R>
void applies_match_three_pass() {
  using C = std::complex<R>;
  const mesh::grid3d grid{6, 5, 7, 0.8};
  const auto ngrid = static_cast<std::size_t>(grid.size());
  xoshiro256 rng(5);
  std::vector<double> v(ngrid);
  for (auto& x : v) x = rng.uniform(-0.5, 0.0);
  matrix<C> psi(ngrid, 5);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    psi.data()[i] = {static_cast<R>(rng.uniform(-1, 1)),
                     static_cast<R>(rng.uniform(-1, 1))};
  }
  for (const auto order : {mesh::fd_order::second, mesh::fd_order::fourth}) {
    for (int axis = 0; axis < 3; ++axis) {
      hamiltonian<R> h(grid, order, v, axis);
      for (const double a : {0.0, 0.37}) {
        h.set_field(a);
        matrix<C> got(ngrid, psi.cols());
        h.apply(psi.view(), got.view());
        EXPECT_TRUE(same_bits(three_pass(h, part<R>::full, psi), got))
            << "apply axis " << axis << " a " << a;
        h.apply_kinetic(psi.view(), got.view());
        EXPECT_TRUE(same_bits(three_pass(h, part<R>::kinetic, psi), got))
            << "apply_kinetic axis " << axis << " a " << a;
        h.apply_kinetic_field(psi.view(), got.view());
        EXPECT_TRUE(
            same_bits(three_pass(h, part<R>::kinetic_field, psi), got))
            << "apply_kinetic_field axis " << axis << " a " << a;
      }
    }
  }
}

TEST_P(ColumnTeam, AppliesMatchThreePassFloat) {
  applies_match_three_pass<float>();
}

TEST_P(ColumnTeam, AppliesMatchThreePassDouble) {
  applies_match_three_pass<double>();
}

struct setup {
  mesh::grid3d grid = mesh::grid3d::cubic(8, 7.37 / 8.0);
  qxmd::atom_system atoms = qxmd::build_pto_supercell(1, 7.37, 0.05, 3);
  init_result init;
  lfd_options options;
  std::vector<double> v_loc;
};

setup make(propagator_kind kind) {
  setup s;
  s.init = initialize_ground_state(s.grid, s.atoms, 8, 3,
                                   mesh::fd_order::fourth, 11);
  s.v_loc = build_local_potential(s.grid, s.atoms);
  s.options.propagator = kind;
  s.options.pulse.e0 = 0.4;
  s.options.pulse.omega = 1.0;
  s.options.pulse.t_center = 0.4;
  s.options.pulse.sigma = 0.15;
  return s;
}

/// The serial step the engine's column-parallel propagation replaces:
/// every Taylor term applies the operator to all columns, then updates
/// term and psi over all ngrid x norb elements; Strang wraps that in the
/// diagonal phase over all columns, formed and applied by the library's
/// strang_phase and multiply_phase, as in the engine.  The nonlocal
/// correction follows, as in qd_step.
template <typename R>
matrix<std::complex<R>> reference_step(const setup& s,
                                       const lfd_engine<R>& engine) {
  using C = std::complex<R>;
  const lfd_options& opt = s.options;
  matrix<C> psi = copy_of(engine.psi());
  const std::size_t ngrid = psi.rows();
  const double a_mid = opt.pulse.a(engine.time() + 0.5 * opt.dt);
  hamiltonian<R> h(s.grid, opt.order, s.v_loc, opt.pulse.polarization_axis);
  h.set_field(a_mid);

  matrix<C> term = copy_of(psi), hpsi(ngrid, psi.cols());
  const auto taylor = [&](auto&& apply_op) {
    for (int n = 1; n <= opt.taylor_order; ++n) {
      apply_op(term, hpsi);
      const double scale = opt.dt / static_cast<double>(n);
      const C coeff(0, static_cast<R>(-scale));
      for (std::size_t i = 0; i < psi.size(); ++i) {
        term.data()[i] = coeff * hpsi.data()[i];
        psi.data()[i] += term.data()[i];
      }
    }
  };
  if (opt.propagator == propagator_kind::taylor) {
    taylor([&](const matrix<C>& in, matrix<C>& out) {
      h.apply(in.view(), out.view());
    });
  } else {
    std::vector<C> phase(ngrid);
    strang_phase<R>(h, opt.dt, phase);
    const auto apply_phase = [&] {
      for (std::size_t j = 0; j < psi.cols(); ++j) {
        multiply_phase<R>({psi.data() + j * ngrid, ngrid}, phase);
      }
    };
    apply_phase();
    term = copy_of(psi);
    taylor([&](const matrix<C>& in, matrix<C>& out) {
      h.apply_kinetic_field(in.view(), out.view());
    });
    apply_phase();
  }
  (void)nlp_prop<R>(engine.psi0(), psi,
                    std::complex<double>(0.0, -opt.dt * opt.v_nl),
                    engine.dv());
  return psi;
}

template <typename R>
void propagation_matches_reference(propagator_kind kind) {
  const setup s = make(kind);
  lfd_engine<R> engine(s.grid, s.options, s.init.psi, s.init.occupations, 3,
                       s.v_loc);
  for (int step = 0; step < 4; ++step) {
    const auto want = reference_step<R>(s, engine);
    (void)engine.qd_step();
    ASSERT_TRUE(same_bits(want, engine.psi())) << "step " << step;
  }
}

TEST_P(ColumnTeam, TaylorPropagationMatchesSerialRecurrenceFloat) {
  propagation_matches_reference<float>(propagator_kind::taylor);
}

TEST_P(ColumnTeam, TaylorPropagationMatchesSerialRecurrenceDouble) {
  propagation_matches_reference<double>(propagator_kind::taylor);
}

TEST_P(ColumnTeam, StrangPropagationMatchesSerialRecurrenceFloat) {
  propagation_matches_reference<float>(propagator_kind::strang);
}

TEST_P(ColumnTeam, StrangPropagationMatchesSerialRecurrenceDouble) {
  propagation_matches_reference<double>(propagator_kind::strang);
}

INSTANTIATE_TEST_SUITE_P(Teams, ColumnTeam, ::testing::Values(1, 3));

}  // namespace
}  // namespace dcmesh::lfd
