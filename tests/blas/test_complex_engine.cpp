// Tests for the fused complex engine: bit-exactness against the
// plane-by-plane reference (complex_reference.hpp) in every mode, kernel
// ISA and executor, and the BLAS argument semantics of cgemm/zgemm.
// PackArena.AllocationFreeAfterWarmup (test_fused_engine.cpp) covers
// its allocation-free operation.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <optional>
#include <type_traits>
#include <vector>

#include "blocking.hpp"
#include "complex_reference.hpp"
#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/compute_mode.hpp"
#include "dcmesh/common/rng.hpp"
#include "dcmesh/sched/config.hpp"
#include "gemm_modes.hpp"
#include "kernel_isa.hpp"

namespace dcmesh::blas {
namespace {

constexpr transpose kOps[] = {transpose::none, transpose::trans,
                              transpose::conj_trans};

/// Every kernel tier this build and CPU can run.
std::vector<detail::kernel_isa> available_isas() {
  std::vector<detail::kernel_isa> isas{detail::kernel_isa::scalar};
  if (detail::avx2_kernels_available()) {
    isas.push_back(detail::kernel_isa::avx2);
  }
  if (detail::avx512_kernels_available()) {
    isas.push_back(detail::kernel_isa::avx512);
  }
  return isas;
}

/// Restores the environment's ISA and the default executor on exit.
struct engine_guard {
  ~engine_guard() {
    detail::set_kernel_isa(std::nullopt);
    sched::reset_for_testing();
  }
};

template <typename R>
std::vector<std::complex<R>> random_complex(std::size_t n, unsigned seed) {
  xoshiro256 rng(seed);
  std::vector<std::complex<R>> v(n);
  for (auto& x : v) {
    x = {static_cast<R>(rng.uniform(-1.0, 1.0)),
         static_cast<R>(rng.uniform(-1.0, 1.0))};
  }
  return v;
}

/// One GEMM's operands, with every leading dimension padded by `pad`.
template <typename R>
struct operands {
  using C = std::complex<R>;
  transpose ta, tb;
  blas_int m, n, k, lda, ldb, ldc;
  std::vector<C> a, b, c;

  operands(transpose ta_, transpose tb_, blas_int m_, blas_int n_,
           blas_int k_, blas_int pad, unsigned seed)
      : ta(ta_), tb(tb_), m(m_), n(n_), k(k_) {
    const blas_int rows_a = ta == transpose::none ? m : k;
    const blas_int cols_a = ta == transpose::none ? k : m;
    const blas_int rows_b = tb == transpose::none ? k : n;
    const blas_int cols_b = tb == transpose::none ? n : k;
    lda = rows_a + pad;
    ldb = rows_b + pad;
    ldc = m + pad;
    a = random_complex<R>(static_cast<std::size_t>(lda * cols_a), seed);
    b = random_complex<R>(static_cast<std::size_t>(ldb * cols_b), seed + 1);
    c = random_complex<R>(static_cast<std::size_t>(ldc * n), seed + 2);
  }
};

/// Run the engine and the reference on copies of C and compare every
/// byte, the padding rows included (neither may touch them).
template <typename R>
void expect_engine_matches_reference(compute_mode mode, const operands<R>& p,
                                     std::complex<R> alpha,
                                     std::complex<R> beta) {
  auto engine = p.c;
  auto reference = p.c;
  detail::gemm_at_mode(mode, p.ta, p.tb, p.m, p.n, p.k, alpha, p.a.data(),
                       p.lda, p.b.data(), p.ldb, beta, engine.data(), p.ldc);
  detail::complex_gemm_reference(mode, p.ta, p.tb, p.m, p.n, p.k, alpha,
                                 p.a.data(), p.lda, p.b.data(), p.ldb, beta,
                                 reference.data(), p.ldc);
  ASSERT_EQ(0, std::memcmp(engine.data(), reference.data(),
                           engine.size() * sizeof(engine[0])))
      << "mode=" << name(mode)
      << " isa=" << detail::kernel_isa_name(detail::active_kernel_isa())
      << " ta=" << static_cast<int>(p.ta) << " tb=" << static_cast<int>(p.tb)
      << " m=" << p.m << " n=" << p.n << " k=" << p.k << " ldc=" << p.ldc
      << " alpha=" << alpha << " beta=" << beta;
}

/// The small-path grid: every op pair, tile and kBlockK edges, two
/// alphas and three betas; every other case pads the leading dimensions.
template <typename R>
void sweep_small_grid(compute_mode mode, bool every_scalar) {
  using C = std::complex<R>;
  const C alphas[] = {C(1), C(R(0.75), R(-0.5))};
  const C betas[] = {C(0), C(1), C(R(0.5), R(0.25))};
  unsigned index = 0;
  for (const transpose ta : kOps) {
    for (const transpose tb : kOps) {
      for (const blas_int m : {1, 3, 5, 8, 13, 16, 40}) {
        for (const blas_int n : {1, 3, 5, 8, 16}) {
          for (const blas_int k : {1, 7, 255, 256, 257, 513}) {
            const operands<R> p(ta, tb, m, n, k, index % 2 == 0 ? 0 : 3,
                                1000 + index);
            for (int s = 0; s < 6; ++s) {
              // Without every_scalar, each shape takes one (alpha, beta)
              // pair, cycling through all six across the grid.
              if (!every_scalar && s != static_cast<int>(index % 6)) {
                continue;
              }
              expect_engine_matches_reference<R>(mode, p, alphas[s / 3],
                                                 betas[s % 3]);
              if (::testing::Test::HasFatalFailure()) return;
            }
            ++index;
          }
        }
      }
    }
  }
}

TEST(ComplexEngine, SmallGridBitIdenticalUnderEveryIsa) {
  engine_guard guard;
  for (const auto isa : available_isas()) {
    detail::set_kernel_isa(isa);
    const bool full = isa == detail::kernel_isa::scalar;
    for (const compute_mode mode :
         {compute_mode::standard, compute_mode::complex_3m}) {
      sweep_small_grid<float>(mode, full);
      if (HasFatalFailure()) return;
      sweep_small_grid<double>(mode, /*every_scalar=*/false);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ComplexEngine, SplitModesReadPlanesBitIdentically) {
  // The fused split route against the four-sgemm_split plane route.
  engine_guard guard;
  const std::complex<float> alpha(0.75f, -0.5f), beta(0.5f, 0.25f);
  for (const auto isa : available_isas()) {
    detail::set_kernel_isa(isa);
    unsigned index = 0;
    for (const compute_mode mode :
         {compute_mode::float_to_bf16, compute_mode::float_to_bf16x2,
          compute_mode::float_to_bf16x3, compute_mode::float_to_tf32}) {
      for (const transpose ta : kOps) {
        for (const transpose tb : kOps) {
          for (const blas_int m : {1, 5, 40}) {
            for (const blas_int n : {1, 16}) {
              for (const blas_int k : {7, 257}) {
                const operands<float> p(ta, tb, m, n, k, index % 2 ? 3 : 0,
                                        5000 + index);
                expect_engine_matches_reference<float>(mode, p, alpha, beta);
                if (HasFatalFailure()) return;
                ++index;
              }
            }
          }
        }
      }
    }
  }
}

/// Shapes past the small path: several MC and NC blocks, B panels too
/// large to share and A blocks too large to keep resident across 4M's
/// two passes, a single-slice tall product like the scaled preset's
/// projection, and a tall thin call under the small path's multiply-add
/// count whose running products would not fit its scratch cap.
struct blocked_shape {
  transpose ta, tb;
  blas_int m, n, k;
};
constexpr blocked_shape kBlockedShapes[] = {
    {transpose::conj_trans, transpose::none, 130, 33, 2100},
    {transpose::none, transpose::none, 600, 40, 40},
    {transpose::trans, transpose::conj_trans, 150, 530, 300},
    {transpose::none, transpose::trans, 77, 20, 700},
    {transpose::none, transpose::conj_trans, 3000, 24, 3},
};

TEST(ComplexEngine, BlockedPathBitIdenticalSerialAndPooled) {
  engine_guard guard;
  unsigned index = 0;
  for (const bool pooled : {false, true}) {
    if (pooled) {
      sched::configure(sched::sched_mode::pool, 3);
    } else {
      sched::configure(sched::sched_mode::serial);
    }
    for (const auto isa : available_isas()) {
      detail::set_kernel_isa(isa);
      for (const blocked_shape& s : kBlockedShapes) {
        for (const compute_mode mode :
             {compute_mode::standard, compute_mode::complex_3m}) {
          const blas_int pad = index % 2 ? 5 : 0;
          const operands<float> pf(s.ta, s.tb, s.m, s.n, s.k, pad,
                                   7000 + index);
          expect_engine_matches_reference<float>(
              mode, pf, {1.25f, -0.5f}, index % 3 ? std::complex<float>(0)
                                                  : std::complex<float>(
                                                        0.5f, 0.25f));
          if (HasFatalFailure()) return;
          const operands<double> pd(s.ta, s.tb, s.m, s.n, s.k, pad,
                                    8000 + index);
          expect_engine_matches_reference<double>(mode, pd, {0.5, 1.5},
                                                  {-1.0, 0.25});
          if (HasFatalFailure()) return;
          ++index;
        }
      }
    }
    // A split mode on the pool: its B pack and items fork too.
    const operands<float> p(transpose::conj_trans, transpose::none, 130, 33,
                            600, 2, 9000);
    expect_engine_matches_reference<float>(compute_mode::float_to_bf16x2, p,
                                           {1.0f, 0.5f}, {0.0f, 1.0f});
    if (HasFatalFailure()) return;
  }
}

TEST(ComplexEngine, RetunedBlockingIsBitIdentical) {
  // MC/NC only partition the output, in the complex engine as in the
  // real core: every legal blocking matches the reference.
  engine_guard guard;
  const operands<float> p(transpose::conj_trans, transpose::none, 150, 70,
                          600, 0, 9100);
  const auto isa = detail::active_kernel_isa();
  const blas_int rq = detail::blocking_row_quantum(isa);
  const blas_int cq = detail::blocking_col_quantum(isa);
  for (const auto bl : {detail::gemm_blocking{rq, cq},
                        detail::gemm_blocking{3 * rq, 2 * cq}}) {
    const detail::scoped_blocking scope(bl.mc, bl.nc);
    for (const compute_mode mode :
         {compute_mode::standard, compute_mode::complex_3m}) {
      expect_engine_matches_reference<float>(mode, p, {1.0f, 0.0f},
                                             {0.5f, -0.5f});
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// BLAS semantics of the public complex entry points.

template <typename R>
void gemm_public(transpose ta, transpose tb, blas_int m, blas_int n,
                 blas_int k, std::complex<R> alpha, const std::complex<R>* a,
                 blas_int lda, const std::complex<R>* b, blas_int ldb,
                 std::complex<R> beta, std::complex<R>* c, blas_int ldc) {
  if constexpr (std::is_same_v<R, float>) {
    cgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else {
    zgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  }
}

template <typename R>
void check_blas_semantics() {
  using C = std::complex<R>;
  const R nan = std::numeric_limits<R>::quiet_NaN();
  const blas_int m = 5, n = 3, k = 7;
  std::vector<compute_mode> modes{compute_mode::standard,
                                  compute_mode::complex_3m};
  if constexpr (std::is_same_v<R, float>) {
    // CGEMM's split route; ZGEMM runs these modes as standard.
    modes.insert(modes.end(),
                 {compute_mode::float_to_bf16, compute_mode::float_to_bf16x2,
                  compute_mode::float_to_bf16x3, compute_mode::float_to_tf32});
  }
  for (const compute_mode mode : modes) {
    SCOPED_TRACE(name(mode));
    scoped_compute_mode scope(mode);
    const auto a = random_complex<R>(static_cast<std::size_t>(m * k), 41);
    const auto b = random_complex<R>(static_cast<std::size_t>(k * n), 42);

    // beta = 0: C is overwritten, so NaN in C never reaches the result.
    std::vector<C> poisoned(static_cast<std::size_t>(m * n), C(nan, nan));
    std::vector<C> zeroed(static_cast<std::size_t>(m * n), C(0));
    gemm_public<R>(transpose::none, transpose::none, m, n, k, C(1, 2),
                   a.data(), m, b.data(), k, C(0), poisoned.data(), m);
    gemm_public<R>(transpose::none, transpose::none, m, n, k, C(1, 2),
                   a.data(), m, b.data(), k, C(0), zeroed.data(), m);
    for (std::size_t i = 0; i < poisoned.size(); ++i) {
      ASSERT_TRUE(std::isfinite(poisoned[i].real()) &&
                  std::isfinite(poisoned[i].imag()))
          << "elem " << i;
      ASSERT_EQ(poisoned[i], zeroed[i]) << "elem " << i;
    }

    // alpha = 0: A and B are not read (null is legal); C <- beta * C.
    auto c = random_complex<R>(static_cast<std::size_t>(m * n), 43);
    auto expect = c;
    const C beta(R(0.5), R(-0.25));
    for (auto& x : expect) x *= beta;
    gemm_public<R>(transpose::conj_trans, transpose::none, m, n, k, C(0),
                   nullptr, k, nullptr, k, beta, c.data(), m);
    ASSERT_EQ(c, expect);

    // k = 0: the product is empty; C <- beta * C, A and B unread.
    c = random_complex<R>(static_cast<std::size_t>(m * n), 44);
    expect = c;
    for (auto& x : expect) x *= beta;
    gemm_public<R>(transpose::none, transpose::none, m, n, 0, C(1, 1),
                   nullptr, m, nullptr, 1, beta, c.data(), m);
    ASSERT_EQ(c, expect);
  }
}

TEST(ComplexGemmSemantics, CgemmBetaZeroAlphaZeroAndEmptyK) {
  check_blas_semantics<float>();
}

TEST(ComplexGemmSemantics, ZgemmBetaZeroAlphaZeroAndEmptyK) {
  check_blas_semantics<double>();
}

}  // namespace
}  // namespace dcmesh::blas
