// Tests for the nonlocal propagation correction (paper Eq. (1)).

#include "dcmesh/lfd/nlp_prop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "../blas/heap_counter.hpp"
#include "dcmesh/blas/level1.hpp"
#include "dcmesh/blas/verbose.hpp"
#include "dcmesh/common/rng.hpp"
#include "dcmesh/qxmd/scf.hpp"
#include "dcmesh/sched/config.hpp"
#include "column_sum.hpp"

namespace dcmesh::lfd {
namespace {

template <typename R>
matrix<std::complex<R>> orthonormal_set(std::size_t ngrid, std::size_t norb,
                                        double dv, unsigned seed) {
  xoshiro256 rng(seed);
  matrix<cdouble> work(ngrid, norb);
  for (std::size_t i = 0; i < work.size(); ++i) {
    work.data()[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  qxmd::orthonormalize(work, dv);
  matrix<std::complex<R>> out(ngrid, norb);
  for (std::size_t i = 0; i < work.size(); ++i) {
    out.data()[i] = {static_cast<R>(work.data()[i].real()),
                     static_cast<R>(work.data()[i].imag())};
  }
  return out;
}

TEST(NlpProp, OverlapIsIdentityAtTimeZero) {
  const double dv = 0.3;
  auto psi0 = orthonormal_set<float>(400, 6, dv, 1);
  auto psi = matrix<std::complex<float>>(400, 6);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    psi.data()[i] = psi0.data()[i];
  }
  const auto result =
      nlp_prop<float>(psi0, psi, std::complex<double>(0, 0), dv);
  // G = dv Psi0^H Psi0 ~ identity.
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t i = 0; i < 6; ++i) {
      const double expected = i == j ? 1.0 : 0.0;
      EXPECT_NEAR(std::abs(result.g(i, j)), expected, 1e-4);
    }
    EXPECT_NEAR(result.subspace_weight[j], 1.0, 1e-3);
  }
  EXPECT_LT(result.norm_drift, 1e-4);
}

TEST(NlpProp, ZeroCoefficientLeavesStateUnchangedUpToRenorm) {
  const double dv = 0.5;
  auto psi0 = orthonormal_set<float>(300, 4, dv, 2);
  auto psi = orthonormal_set<float>(300, 4, dv, 3);
  matrix<std::complex<float>> before(300, 4);
  for (std::size_t i = 0; i < psi.size(); ++i) before.data()[i] = psi.data()[i];
  (void)nlp_prop<float>(psi0, psi, std::complex<double>(0, 0), dv);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    ASSERT_NEAR(std::abs(psi.data()[i] - before.data()[i]), 0.0, 1e-5);
  }
}

TEST(NlpProp, CorrectionKeepsColumnsNormalized) {
  const double dv = 0.25;
  auto psi0 = orthonormal_set<float>(500, 5, dv, 4);
  auto psi = orthonormal_set<float>(500, 5, dv, 5);
  (void)nlp_prop<float>(psi0, psi, std::complex<double>(0, -0.01), dv);
  for (std::size_t j = 0; j < 5; ++j) {
    double norm2 = 0.0;
    for (std::size_t i = 0; i < 500; ++i) norm2 += std::norm(psi(i, j));
    EXPECT_NEAR(norm2 * dv, 1.0, 1e-5) << j;
  }
}

TEST(NlpProp, ProjectsTowardInitialSubspace) {
  // Repeated application of the correction with -i dt v_nl rotates phase
  // within the initial subspace; a state orthogonal to Psi0 is untouched.
  const double dv = 1.0;
  const std::size_t ngrid = 64;
  auto both = orthonormal_set<double>(ngrid, 4, dv, 6);
  // psi0 = first 2 columns; psi = last 2 columns (orthogonal to psi0).
  matrix<cdouble> psi0(ngrid, 2), psi(ngrid, 2);
  for (std::size_t j = 0; j < 2; ++j) {
    for (std::size_t i = 0; i < ngrid; ++i) {
      psi0(i, j) = both(i, j);
      psi(i, j) = both(i, j + 2);
    }
  }
  matrix<cdouble> before(ngrid, 2);
  for (std::size_t i = 0; i < psi.size(); ++i) before.data()[i] = psi.data()[i];
  const auto result =
      nlp_prop<double>(psi0, psi, std::complex<double>(0, -0.05), dv);
  // G ~ 0, so psi unchanged and subspace weight ~ 0.
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(result.subspace_weight[j], 0.0, 1e-10);
  }
  for (std::size_t i = 0; i < psi.size(); ++i) {
    ASSERT_NEAR(std::abs(psi.data()[i] - before.data()[i]), 0.0, 1e-10);
  }
}

TEST(NlpProp, MakesExactlyThreeBlasCalls) {
  const double dv = 1.0;
  auto psi0 = orthonormal_set<float>(100, 3, dv, 7);
  auto psi = orthonormal_set<float>(100, 3, dv, 8);
  blas::clear_call_log();
  (void)nlp_prop<float>(psi0, psi, std::complex<double>(0, -0.02), dv);
  const auto calls = blas::recent_calls();
  ASSERT_EQ(calls.size(), 3u);
  // Call 1: (norb, norb, ngrid); call 2: (ngrid, norb, norb);
  // call 3: (norb, norb, norb).
  EXPECT_EQ(calls[0].m, 3);
  EXPECT_EQ(calls[0].k, 100);
  EXPECT_EQ(calls[1].m, 100);
  EXPECT_EQ(calls[1].k, 3);
  EXPECT_EQ(calls[2].m, 3);
  EXPECT_EQ(calls[2].k, 3);
}

TEST(NlpProp, DoublePrecisionUsesZgemm) {
  const double dv = 1.0;
  auto psi0 = orthonormal_set<double>(50, 2, dv, 9);
  auto psi = orthonormal_set<double>(50, 2, dv, 10);
  blas::clear_call_log();
  (void)nlp_prop<double>(psi0, psi, std::complex<double>(0, -0.02), dv);
  for (const auto& call : blas::recent_calls()) {
    EXPECT_EQ(call.routine, "ZGEMM");
  }
}

/// Unnormalized columns on a mesh large enough for the kernel team, one
/// column holding a NaN (its drift is NaN and must be skipped).
template <typename R>
matrix<std::complex<R>> team_sized_state() {
  const std::size_t ngrid = 4096, norb = 12;
  static_assert(4096 * 12 >= detail::kTeamMinPoints);
  xoshiro256 rng(21);
  matrix<std::complex<R>> psi(ngrid, norb);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    psi.data()[i] = {static_cast<R>(rng.uniform(-1, 1)),
                     static_cast<R>(rng.uniform(-1, 1))};
  }
  psi(17, 5) = {std::numeric_limits<R>::quiet_NaN(), R(0)};
  return psi;
}

/// The serial column loop nlp_renormalize ran before it used the team.
template <typename R>
double inline_renormalize(matrix<std::complex<R>>& psi, double dv) {
  const std::size_t ngrid = psi.rows();
  const double sqrt_dv = std::sqrt(dv);
  double worst = 0.0;
  for (std::size_t j = 0; j < psi.cols(); ++j) {
    std::complex<R>* col = psi.data() + j * ngrid;
    const double norm =
        blas::nrm2(static_cast<blas::blas_int>(ngrid), col, 1) * sqrt_dv;
    worst = std::max(worst, std::abs(norm - 1.0));
    if (norm > 0.0) {
      blas::scal_real<R>(static_cast<blas::blas_int>(ngrid),
                         static_cast<R>(1.0 / norm), col, 1);
    }
  }
  return worst;
}

template <typename R>
void renormalize_matches_inline() {
  const double dv = 0.07;
  for (const int threads : {1, 3}) {
    sched::set_thread_count(threads);
    auto want = team_sized_state<R>();
    auto got = team_sized_state<R>();
    const double want_drift = inline_renormalize<R>(want, dv);
    std::vector<double> drift(got.cols());
    const double got_drift = nlp_renormalize<R>(got, dv, drift);
    EXPECT_EQ(std::memcmp(&want_drift, &got_drift, sizeof(double)), 0)
        << threads << " threads";
    EXPECT_TRUE(std::isfinite(got_drift)) << threads << " threads";
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          want.size() * sizeof(std::complex<R>)),
              0)
        << threads << " threads";
  }
  sched::set_thread_count(0);
}

TEST(NlpProp, RenormalizeOnTeamMatchesInline) {
  renormalize_matches_inline<float>();
  renormalize_matches_inline<double>();
}

// Renormalization runs every QD step: once warm it makes no heap
// allocation on a serial or a pooled team.
TEST(NlpProp, WarmRenormalizeAllocatesNothing) {
  auto psi = team_sized_state<float>();
  std::vector<double> drift(psi.cols());
  for (const int threads : {1, 3}) {
    sched::set_thread_count(threads);
    (void)nlp_renormalize<float>(psi, 0.07, drift);  // warm the team
    const std::uint64_t before = test::heap_allocations();
    (void)nlp_renormalize<float>(psi, 0.07, drift);
    EXPECT_EQ(test::heap_allocations() - before, 0u) << threads << " threads";
  }
  sched::set_thread_count(0);
}

}  // namespace
}  // namespace dcmesh::lfd
