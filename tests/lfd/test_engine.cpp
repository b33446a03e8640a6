// Tests for the LFD engine: invariants of the QD step and the precision
// plumbing the paper's methodology rests on.

#include "dcmesh/lfd/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "../blas/heap_counter.hpp"
#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/verbose.hpp"
#include "dcmesh/lfd/init.hpp"
#include "dcmesh/lfd/potential.hpp"
#include "dcmesh/qxmd/supercell.hpp"
#include "dcmesh/sched/config.hpp"
#include "dcmesh/trace/metrics.hpp"

namespace dcmesh::lfd {
namespace {

struct test_setup {
  mesh::grid3d grid;
  qxmd::atom_system atoms;
  init_result init;
  lfd_options options;
};

test_setup make_setup(double pulse_e0) {
  test_setup s{mesh::grid3d::cubic(8, 7.37 / 8.0),
               qxmd::build_pto_supercell(1, 7.37, 0.05, 3),
               {},
               {}};
  s.init = initialize_ground_state(s.grid, s.atoms, 8, 3,
                                   mesh::fd_order::fourth, 11);
  s.options.dt = 0.02;
  s.options.v_nl = 0.08;
  s.options.pulse.e0 = pulse_e0;
  s.options.pulse.omega = 1.0;
  s.options.pulse.t_center = 0.4;
  s.options.pulse.sigma = 0.15;
  return s;
}

template <typename R>
lfd_engine<R> make_engine(const test_setup& s) {
  return lfd_engine<R>(s.grid, s.options, s.init.psi, s.init.occupations, 3,
                       build_local_potential(s.grid, s.atoms));
}

TEST(Engine, QdStepMakesExactlyNineBlasCalls) {
  // The artifact appendix's structural fact: 9 BLAS calls per QD step.
  const auto setup = make_setup(0.2);
  auto engine = make_engine<float>(setup);
  blas::clear_call_log();
  (void)engine.qd_step();
  EXPECT_EQ(blas::call_count(), 9u);
}

TEST(Engine, DeterministicAcrossInstances) {
  const auto setup = make_setup(0.2);
  auto a = make_engine<float>(setup);
  auto b = make_engine<float>(setup);
  for (int i = 0; i < 5; ++i) {
    const auto ra = a.qd_step();
    const auto rb = b.qd_step();
    ASSERT_EQ(ra.ekin, rb.ekin);
    ASSERT_EQ(ra.nexc, rb.nexc);
    ASSERT_EQ(ra.javg, rb.javg);
  }
}

TEST(Engine, FieldFreeGroundStateIsStationary) {
  // Without a pulse the SCF ground state barely excites (the nonlocal
  // projector commutes with the initial subspace) and energy is conserved.
  const auto setup = make_setup(0.0);
  auto engine = make_engine<double>(setup);
  qd_record first{}, last{};
  for (int i = 0; i < 25; ++i) {
    last = engine.qd_step();
    if (i == 0) first = last;
  }
  // The RR ground state is an eigenstate of the projected Hamiltonian, not
  // of the full discrete H, so a small residual evolution is genuine; it
  // must stay orders of magnitude below a real excitation (~1e-2).
  EXPECT_LT(last.nexc, 1e-4);
  EXPECT_LT(std::abs(last.etot - first.etot), 5e-3);
  EXPECT_NEAR(last.aext, 0.0, 1e-12);
}

TEST(Engine, PulseExcitesElectrons) {
  const auto setup = make_setup(0.5);
  auto engine = make_engine<double>(setup);
  double nexc = 0.0;
  for (int i = 0; i < 40; ++i) {
    nexc = engine.qd_step().nexc;
  }
  EXPECT_GT(nexc, 1e-8);  // the pulse (centred at t=0.4) did real work
}

TEST(Engine, TimeAdvancesByDt) {
  const auto setup = make_setup(0.1);
  auto engine = make_engine<float>(setup);
  EXPECT_DOUBLE_EQ(engine.time(), 0.0);
  (void)engine.qd_step();
  EXPECT_DOUBLE_EQ(engine.time(), 0.02);
  (void)engine.qd_step();
  EXPECT_DOUBLE_EQ(engine.time(), 0.04);
  EXPECT_EQ(engine.qd_steps_taken(), 2u);
}

TEST(Engine, RecordFieldsConsistent) {
  const auto setup = make_setup(0.3);
  auto engine = make_engine<float>(setup);
  const auto r = engine.qd_step();
  EXPECT_DOUBLE_EQ(r.t, 0.02);
  EXPECT_NEAR(r.etot, r.ekin + r.epot, 1e-10);
  EXPECT_GE(r.aext, 0.0);
  EXPECT_TRUE(std::isfinite(r.javg));
  EXPECT_GE(r.nexc, 0.0);
}

TEST(Engine, ScfRefreshRepairsDriftAndPreservesObservables) {
  const auto setup = make_setup(0.4);
  auto engine = make_engine<float>(setup);
  for (int i = 0; i < 30; ++i) (void)engine.qd_step();
  const double nexc_before = engine.qd_step().nexc;
  const auto report = engine.refresh_scf();
  EXPECT_GE(report.max_norm_drift, 0.0);
  // One more step after the refresh: the observable stays the same order
  // of magnitude (the FP64 re-orthonormalization redistributes a little
  // leaked weight by construction, so exact continuity is not expected).
  const double nexc_after = engine.qd_step().nexc;
  EXPECT_GT(nexc_after, nexc_before / 3.0);
  EXPECT_LT(nexc_after, nexc_before * 3.0);
}

TEST(Engine, Fp32AndFp64TrackEachOther) {
  // The FP64 build is the reference; FP32 must agree to single precision
  // over a short run.
  const auto setup = make_setup(0.3);
  auto e32 = make_engine<float>(setup);
  auto e64 = make_engine<double>(setup);
  for (int i = 0; i < 10; ++i) {
    const auto r32 = e32.qd_step();
    const auto r64 = e64.qd_step();
    ASSERT_NEAR(r32.ekin, r64.ekin, 1e-3 * std::abs(r64.ekin) + 1e-4);
    ASSERT_NEAR(r32.nexc, r64.nexc, 1e-3 * std::abs(r64.nexc) + 1e-5);
  }
}

TEST(Engine, ConstructorValidatesArguments) {
  const auto setup = make_setup(0.1);
  auto v = build_local_potential(setup.grid, setup.atoms);
  // nocc out of range.
  EXPECT_THROW(lfd_engine<float>(setup.grid, setup.options, setup.init.psi,
                                 setup.init.occupations, 0, v),
               std::invalid_argument);
  EXPECT_THROW(lfd_engine<float>(setup.grid, setup.options, setup.init.psi,
                                 setup.init.occupations, 8, v),
               std::invalid_argument);
  // occupation count mismatch.
  EXPECT_THROW(lfd_engine<float>(setup.grid, setup.options, setup.init.psi,
                                 std::vector<double>(3, 2.0), 2, v),
               std::invalid_argument);
}

TEST(Engine, UnstableTimestepIsRejected) {
  auto setup = make_setup(0.1);
  setup.options.dt = 10.0;  // wildly beyond the Taylor stability radius
  auto engine = make_engine<float>(setup);
  EXPECT_THROW((void)engine.qd_step(), std::runtime_error);
}

TEST(Engine, SetPotentialTakesEffect) {
  const auto setup = make_setup(0.0);
  auto engine = make_engine<double>(setup);
  const double epot0 = engine.qd_step().epot;
  // Shift the potential down by 1 Ha everywhere: epot drops by N_el * 1.
  auto v = build_local_potential(setup.grid, setup.atoms);
  for (auto& x : v) x -= 1.0;
  engine.set_potential(std::move(v));
  const double epot1 = engine.qd_step().epot;
  double n_el = 0.0;
  for (double f : setup.init.occupations) n_el += f;
  EXPECT_NEAR(epot1 - epot0, -n_el, 0.05 * n_el);
}

/// The step's nine CGEMMs, by shape, transposes and tag, on operands of
/// `engine`'s size: what its call records cost without the step around
/// them.
class step_gemms {
 public:
  explicit step_gemms(const lfd_engine<float>& engine)
      : psi0_(engine.psi().rows(), engine.psi().cols()),
        psi_(engine.psi().rows(), engine.psi().cols()),
        small_(engine.psi().cols(), engine.psi().cols()),
        out_(engine.psi().cols(), engine.psi().cols()),
        s_(engine.nocc(), engine.psi().cols() - engine.nocc()),
        o_(engine.nocc(), engine.nocc()),
        rmat_(engine.psi().cols() - engine.nocc(), engine.nocc()) {
    std::copy_n(engine.psi0().data(), psi0_.size(), psi0_.data());
    std::copy_n(engine.psi().data(), psi_.size(), psi_.data());
    for (std::size_t j = 0; j < small_.cols(); ++j) small_(j, j) = 1.0f;
  }

  void run() {
    using blas::transpose;
    constexpr auto N = transpose::none, H = transpose::conj_trans;
    const std::size_t ngrid = psi_.rows(), nocc = s_.rows();
    const const_matrix_view<C> occ{psi_.data(), ngrid, nocc, ngrid};
    const const_matrix_view<C> unocc{psi0_.data() + nocc * ngrid, ngrid,
                                     s_.cols(), ngrid};
    gemm(H, N, psi0_.view(), psi_.view(), out_.view(), "lfd/nlp_prop/overlap");
    gemm(N, N, psi0_.view(), small_.view(), psi_.view(),
         "lfd/nlp_prop/project");
    gemm(H, N, small_.view(), small_.view(), out_.view(),
         "lfd/nlp_prop/subspace");
    gemm(H, N, psi_.view(), psi0_.view(), out_.view(),
         "lfd/calc_energy/kinetic");
    gemm(H, N, small_.view(), small_.view(), out_.view(),
         "lfd/calc_energy/nonlocal");
    gemm(N, N, small_.view(), small_.view(), out_.view(),
         "lfd/calc_energy/band_rot");
    gemm(H, N, occ, unocc, s_.view(), "lfd/remap_occ/overlap");
    gemm(N, H, s_.view(), s_.view(), o_.view(), "lfd/remap_occ/moment1");
    gemm(H, N, s_.view(), o_.view(), rmat_.view(), "lfd/remap_occ/moment2");
  }

 private:
  using C = std::complex<float>;
  static void gemm(blas::transpose ta, blas::transpose tb,
                   const_matrix_view<C> a, const_matrix_view<C> b,
                   matrix_view<C> c, const char* tag) {
    blas::gemm<C>(ta, tb, C(1), a, b, C(0), c, tag);
  }

  matrix<C> psi0_, psi_, small_, out_, s_, o_, rmat_;
};

// A warm serial step allocates only in its nine BLAS call records: over
// 100 steps, no more than the same 900 tagged CGEMMs issued directly.
TEST(Engine, WarmSerialStepAllocatesOnlyInCallRecords) {
  sched::configure(sched::sched_mode::serial);
  sched::set_thread_count(3);
  const auto setup = make_setup(0.2);
  auto engine = make_engine<float>(setup);
  step_gemms direct(engine);
  // One unmeasured round of each warms every cache and grows the call
  // log's index once; both measured loops then start from an empty log.
  constexpr int kSteps = 100;
  for (int i = 0; i < kSteps; ++i) {
    (void)engine.qd_step();
    direct.run();
  }
  blas::clear_call_log();
  std::uint64_t before = test::heap_allocations();
  for (int i = 0; i < kSteps; ++i) (void)engine.qd_step();
  const std::uint64_t in_steps = test::heap_allocations() - before;
  blas::clear_call_log();
  before = test::heap_allocations();
  for (int i = 0; i < kSteps; ++i) direct.run();
  const std::uint64_t in_gemms = test::heap_allocations() - before;
  EXPECT_LE(in_steps, in_gemms);
  sched::set_thread_count(0);
  sched::reset_for_testing();
}

// Each QD step runs the engine's step graph exactly once, serial or
// pooled (perfbench's qd_scaled times steps by this counter).
TEST(Engine, EachStepRunsTheStepGraphOnce) {
  const auto setup = make_setup(0.2);
  for (const bool pooled : {false, true}) {
    if (pooled) {
      sched::configure(sched::sched_mode::pool, 3);
    } else {
      sched::configure(sched::sched_mode::serial);
    }
    auto engine = make_engine<float>(setup);
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t before = trace::sched_counter("graphs");
      (void)engine.qd_step();
      EXPECT_EQ(trace::sched_counter("graphs") - before, 1u)
          << (pooled ? "pool:3" : "serial") << " step " << i;
    }
  }
  sched::reset_for_testing();
}

}  // namespace
}  // namespace dcmesh::lfd
