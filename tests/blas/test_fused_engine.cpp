// Tests for the fused split-mode GEMM engine: bit-exactness against the
// pre-fusion reference path, scalar-vs-AVX2 microkernel equivalence, the
// zero-allocation packing arena (real and complex GEMMs), and
// DCMESH_KERNEL_ISA handling.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <optional>
#include <thread>
#include <vector>

#include "blocking.hpp"
#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/compute_mode.hpp"
#include "dcmesh/common/env.hpp"
#include "dcmesh/common/rng.hpp"
#include "dcmesh/sched/config.hpp"
#include "gemm_kernel.hpp"
#include "gemm_modes.hpp"
#include "heap_counter.hpp"
#include "kernel_isa.hpp"
#include "pack_arena.hpp"
#include "split.hpp"
#include "split_reference.hpp"

namespace dcmesh::blas {
namespace {

std::vector<float> signed_random(std::size_t n, unsigned seed) {
  xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Restore the launch-environment ISA resolution when a test ends.
struct isa_guard {
  ~isa_guard() {
    detail::set_kernel_isa(std::nullopt);
    detail::set_bf16_native(std::nullopt);
  }
};

// ---------------------------------------------------------------------------
// Bit-exactness: the fused engine must reproduce the pre-fusion reference
// (dense split_operand copies + one blocked pass per retained product)
// bit-for-bit — the fusion moves memory traffic, not arithmetic.

constexpr blas_int kEdgeDims[] = {0, 1, 3, 5, 65, 129};

void expect_fused_matches_reference(compute_mode mode, transpose ta,
                                    transpose tb) {
  int idx = 0;
  for (const blas_int m : kEdgeDims) {
    for (const blas_int n : kEdgeDims) {
      // A sparse sample of k keeps the sweep fast while still crossing the
      // kBlockK boundary (k > 256 via 65*5).
      for (const blas_int k : {blas_int{0}, blas_int{3}, blas_int{65},
                               blas_int{325}}) {
        const blas_int rows_a = ta == transpose::none ? m : k;
        const blas_int cols_a = ta == transpose::none ? k : m;
        const blas_int rows_b = tb == transpose::none ? k : n;
        const blas_int cols_b = tb == transpose::none ? n : k;
        const auto a = signed_random(
            static_cast<std::size_t>(std::max<blas_int>(1, rows_a * cols_a)),
            100 + static_cast<unsigned>(idx));
        const auto b = signed_random(
            static_cast<std::size_t>(std::max<blas_int>(1, rows_b * cols_b)),
            200 + static_cast<unsigned>(idx));
        ++idx;
        // Nonzero initial C plus beta exercises the scale+accumulate
        // epilogue; alpha != 1 exercises the per-update rounding.
        std::vector<float> c_fused(
            static_cast<std::size_t>(std::max<blas_int>(1, m * n)), 0.5f);
        std::vector<float> c_ref = c_fused;
        const float alpha = 1.25f, beta = 0.75f;
        detail::sgemm_split(mode, ta, tb, m, n, k, alpha, a.data(),
                            std::max<blas_int>(1, rows_a), b.data(),
                            std::max<blas_int>(1, rows_b), beta,
                            c_fused.data(), std::max<blas_int>(1, m));
        detail::sgemm_split_reference(mode, ta, tb, m, n, k, alpha, a.data(),
                                      std::max<blas_int>(1, rows_a), b.data(),
                                      std::max<blas_int>(1, rows_b), beta,
                                      c_ref.data(), std::max<blas_int>(1, m));
        for (std::size_t i = 0; i < c_fused.size(); ++i) {
          ASSERT_EQ(c_fused[i], c_ref[i])
              << "mode=" << static_cast<int>(mode) << " ta="
              << static_cast<int>(ta) << " tb=" << static_cast<int>(tb)
              << " m=" << m << " n=" << n << " k=" << k << " elem=" << i;
        }
      }
    }
  }
}

class FusedEngineExactness
    : public ::testing::TestWithParam<std::tuple<compute_mode, transpose>> {};

TEST_P(FusedEngineExactness, MatchesReferenceBitForBit) {
  const auto [mode, op] = GetParam();
  // Vary the operand the op applies to as well as applying it to both.
  expect_fused_matches_reference(mode, op, transpose::none);
  expect_fused_matches_reference(mode, transpose::none, op);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndOps, FusedEngineExactness,
    ::testing::Combine(::testing::Values(compute_mode::float_to_bf16,
                                         compute_mode::float_to_bf16x2,
                                         compute_mode::float_to_bf16x3,
                                         compute_mode::float_to_tf32),
                       ::testing::Values(transpose::none, transpose::trans,
                                         transpose::conj_trans)));

TEST(FusedEngine, StandardModeIsTheBlockedCore) {
  // The fifth compute mode: STANDARD never routes through the split
  // engine — the dispatcher funnels it straight to gemm_blocked.  Lock
  // that equivalence bit-for-bit through the public API.
  for (const blas_int dim : kEdgeDims) {
    const blas_int m = dim, n = dim, k = dim;
    const auto a = signed_random(
        static_cast<std::size_t>(std::max<blas_int>(1, m * k)), 301);
    const auto b = signed_random(
        static_cast<std::size_t>(std::max<blas_int>(1, k * n)), 302);
    std::vector<float> c_api(
        static_cast<std::size_t>(std::max<blas_int>(1, m * n)), 0.25f);
    std::vector<float> c_core = c_api;
    {
      scoped_compute_mode scope(compute_mode::standard);
      sgemm(transpose::none, transpose::none, m, n, k, 1.5f, a.data(),
            std::max<blas_int>(1, m), b.data(), std::max<blas_int>(1, k),
            0.5f, c_api.data(), std::max<blas_int>(1, m));
    }
    detail::gemm_blocked(transpose::none, transpose::none, m, n, k, 1.5f,
                         a.data(), std::max<blas_int>(1, m), b.data(),
                         std::max<blas_int>(1, k), 0.5f, c_core.data(),
                         std::max<blas_int>(1, m));
    for (std::size_t i = 0; i < c_api.size(); ++i) {
      ASSERT_EQ(c_api[i], c_core[i]) << "dim=" << dim << " elem=" << i;
    }
  }
}

TEST(FusedEngine, ExactUnderEveryKernelIsa) {
  // The bit-level contract holds per ISA: fused and reference paths share
  // whatever microkernel is active, so they agree under each.  The native
  // BF16 engine is forced OFF here — it is ULP-equivalent, not
  // bit-identical, and has its own tests below.
  isa_guard guard;
  detail::set_bf16_native(false);
  for (const auto isa :
       {detail::kernel_isa::scalar, detail::kernel_isa::avx2,
        detail::kernel_isa::avx512}) {
    if (isa == detail::kernel_isa::avx2 &&
        !detail::avx2_kernels_available()) {
      continue;
    }
    if (isa == detail::kernel_isa::avx512 &&
        !detail::avx512_kernels_available()) {
      continue;
    }
    detail::set_kernel_isa(isa);
    expect_fused_matches_reference(compute_mode::float_to_bf16x3,
                                   transpose::trans, transpose::none);
    if (isa == detail::kernel_isa::avx512) {
      // The widest tile (14x32) has the most edge/remainder paths; cover
      // a second mode and op combination on it.
      expect_fused_matches_reference(compute_mode::float_to_bf16x2,
                                     transpose::none, transpose::trans);
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar vs AVX2 microkernel equivalence.  The two kernels apply the same
// per-element operation order; they may differ only through FMA
// contraction, so results must agree to a few ULP of the accumulated
// magnitude — not necessarily bit-for-bit.

TEST(KernelIsa, ScalarVsAvx2WithinUlpBound) {
  if (!detail::avx2_kernels_available()) {
    GTEST_SKIP() << "no AVX2+FMA kernels in this build/CPU";
  }
  isa_guard guard;
  for (const blas_int dim : {1, 5, 64, 129, 200}) {
    const blas_int m = dim, n = dim, k = dim + 7;
    const auto a = signed_random(static_cast<std::size_t>(m * k),
                                 31 + static_cast<unsigned>(dim));
    const auto b = signed_random(static_cast<std::size_t>(k * n),
                                 57 + static_cast<unsigned>(dim));
    std::vector<float> c_scalar(static_cast<std::size_t>(m * n));
    std::vector<float> c_avx2 = c_scalar;
    detail::set_kernel_isa(detail::kernel_isa::scalar);
    detail::gemm_blocked(transpose::none, transpose::none, m, n, k, 1.0f,
                         a.data(), m, b.data(), k, 0.0f, c_scalar.data(), m);
    detail::set_kernel_isa(detail::kernel_isa::avx2);
    ASSERT_EQ(detail::active_kernel_isa(), detail::kernel_isa::avx2);
    detail::gemm_blocked(transpose::none, transpose::none, m, n, k, 1.0f,
                         a.data(), m, b.data(), k, 0.0f, c_avx2.data(), m);
    // |a|,|b| <= 1: each element accumulates k products of magnitude <= 1,
    // so a few-ULP contraction drift is bounded by ~8 eps * k.
    const float tol = 8.0f * std::numeric_limits<float>::epsilon() *
                      static_cast<float>(k);
    for (std::size_t i = 0; i < c_scalar.size(); ++i) {
      ASSERT_NEAR(c_scalar[i], c_avx2[i], tol) << "dim=" << dim
                                               << " elem=" << i;
    }
  }
}

TEST(KernelIsa, DoubleScalarVsAvx2WithinUlpBound) {
  if (!detail::avx2_kernels_available()) {
    GTEST_SKIP() << "no AVX2+FMA kernels in this build/CPU";
  }
  isa_guard guard;
  const blas_int m = 96, n = 96, k = 150;
  xoshiro256 rng(7);
  std::vector<double> a(static_cast<std::size_t>(m * k));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  for (auto& x : a) x = rng.uniform(-1.0, 1.0);
  for (auto& x : b) x = rng.uniform(-1.0, 1.0);
  std::vector<double> c_scalar(static_cast<std::size_t>(m * n));
  std::vector<double> c_avx2 = c_scalar;
  detail::set_kernel_isa(detail::kernel_isa::scalar);
  detail::gemm_blocked(transpose::none, transpose::none, m, n, k, 1.0,
                       a.data(), m, b.data(), k, 0.0, c_scalar.data(), m);
  detail::set_kernel_isa(detail::kernel_isa::avx2);
  detail::gemm_blocked(transpose::none, transpose::none, m, n, k, 1.0,
                       a.data(), m, b.data(), k, 0.0, c_avx2.data(), m);
  const double tol =
      8.0 * std::numeric_limits<double>::epsilon() * static_cast<double>(k);
  for (std::size_t i = 0; i < c_scalar.size(); ++i) {
    ASSERT_NEAR(c_scalar[i], c_avx2[i], tol) << "elem=" << i;
  }
}

// ---------------------------------------------------------------------------
// Scalar vs AVX-512 microkernel equivalence — the same FMA-contraction
// bound as the AVX2 pair, now over the 14x32 / 8x16 ZMM tiles.

TEST(KernelIsa, ScalarVsAvx512WithinUlpBound) {
  if (!detail::avx512_kernels_available()) {
    GTEST_SKIP() << "no AVX-512 kernels in this build/CPU";
  }
  isa_guard guard;
  for (const blas_int dim : {1, 5, 13, 64, 129, 200}) {
    const blas_int m = dim, n = dim, k = dim + 7;
    const auto a = signed_random(static_cast<std::size_t>(m * k),
                                 131 + static_cast<unsigned>(dim));
    const auto b = signed_random(static_cast<std::size_t>(k * n),
                                 157 + static_cast<unsigned>(dim));
    std::vector<float> c_scalar(static_cast<std::size_t>(m * n));
    std::vector<float> c_avx512 = c_scalar;
    detail::set_kernel_isa(detail::kernel_isa::scalar);
    detail::gemm_blocked(transpose::none, transpose::none, m, n, k, 1.0f,
                         a.data(), m, b.data(), k, 0.0f, c_scalar.data(), m);
    detail::set_kernel_isa(detail::kernel_isa::avx512);
    ASSERT_EQ(detail::active_kernel_isa(), detail::kernel_isa::avx512);
    detail::gemm_blocked(transpose::none, transpose::none, m, n, k, 1.0f,
                         a.data(), m, b.data(), k, 0.0f, c_avx512.data(), m);
    const float tol = 8.0f * std::numeric_limits<float>::epsilon() *
                      static_cast<float>(k);
    for (std::size_t i = 0; i < c_scalar.size(); ++i) {
      ASSERT_NEAR(c_scalar[i], c_avx512[i], tol) << "dim=" << dim
                                                 << " elem=" << i;
    }
  }
}

TEST(KernelIsa, DoubleScalarVsAvx512WithinUlpBound) {
  if (!detail::avx512_kernels_available()) {
    GTEST_SKIP() << "no AVX-512 kernels in this build/CPU";
  }
  isa_guard guard;
  const blas_int m = 96, n = 96, k = 150;
  xoshiro256 rng(17);
  std::vector<double> a(static_cast<std::size_t>(m * k));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  for (auto& x : a) x = rng.uniform(-1.0, 1.0);
  for (auto& x : b) x = rng.uniform(-1.0, 1.0);
  std::vector<double> c_scalar(static_cast<std::size_t>(m * n));
  std::vector<double> c_avx512 = c_scalar;
  detail::set_kernel_isa(detail::kernel_isa::scalar);
  detail::gemm_blocked(transpose::none, transpose::none, m, n, k, 1.0,
                       a.data(), m, b.data(), k, 0.0, c_scalar.data(), m);
  detail::set_kernel_isa(detail::kernel_isa::avx512);
  detail::gemm_blocked(transpose::none, transpose::none, m, n, k, 1.0,
                       a.data(), m, b.data(), k, 0.0, c_avx512.data(), m);
  const double tol =
      8.0 * std::numeric_limits<double>::epsilon() * static_cast<double>(k);
  for (std::size_t i = 0; i < c_scalar.size(); ++i) {
    ASSERT_NEAR(c_scalar[i], c_avx512[i], tol) << "elem=" << i;
  }
}

// ---------------------------------------------------------------------------
// Native BF16 engine (vcvtne2ps2bf16 packing + vdpbf16ps dot kernels).
// The hardware dot sums each bf16 pair before the FP32 accumulate, so the
// native path is ULP-equivalent — deliberately NOT bit-identical — to the
// software split engine, and switching it off must restore bit-exactness.

TEST(Bf16Native, OffRestoresBitExactness) {
  if (!detail::avx512bf16_kernels_available()) {
    GTEST_SKIP() << "no AVX512-BF16 engine in this build/CPU";
  }
  isa_guard guard;
  detail::set_kernel_isa(detail::kernel_isa::avx512);
  detail::set_bf16_native(false);
  expect_fused_matches_reference(compute_mode::float_to_bf16x2,
                                 transpose::none, transpose::none);
}

TEST(Bf16Native, MatchesSoftwareSplitWithinUlpBound) {
  if (!detail::avx512bf16_kernels_available()) {
    GTEST_SKIP() << "no AVX512-BF16 engine in this build/CPU";
  }
  isa_guard guard;
  detail::set_kernel_isa(detail::kernel_isa::avx512);
  for (const auto mode :
       {compute_mode::float_to_bf16x2, compute_mode::float_to_bf16x3}) {
    for (const auto ta : {transpose::none, transpose::trans}) {
      const blas_int m = 67, n = 129, k = 515;  // crosses kBlockK, ragged
      const auto a = signed_random(static_cast<std::size_t>(m * k), 71);
      const auto b = signed_random(static_cast<std::size_t>(k * n), 72);
      const blas_int lda = ta == transpose::none ? m : k;
      std::vector<float> c_soft(static_cast<std::size_t>(m * n), 0.25f);
      std::vector<float> c_native = c_soft;
      detail::set_bf16_native(false);
      detail::sgemm_split(mode, ta, transpose::none, m, n, k, 1.5f, a.data(),
                          lda, b.data(), k, 0.5f, c_soft.data(), m);
      detail::set_bf16_native(true);
      detail::sgemm_split(mode, ta, transpose::none, m, n, k, 1.5f, a.data(),
                          lda, b.data(), k, 0.5f, c_native.data(), m);
      // Both paths round identically into bf16 components; they differ
      // only in FP32 summation order (hardware pair-sums) and subnormal
      // component flushing.  |a|,|b| <= 1 bounds the drift by a small
      // multiple of eps_f32 * k — far inside the mode's own split error.
      const float tol = 64.0f * std::numeric_limits<float>::epsilon() *
                        static_cast<float>(k);
      for (std::size_t i = 0; i < c_soft.size(); ++i) {
        ASSERT_NEAR(c_soft[i], c_native[i], tol)
            << "mode=" << static_cast<int>(mode)
            << " ta=" << static_cast<int>(ta) << " elem=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cache-blocking identity: MC/NC partition only the OUTPUT, so every legal
// blocking must reproduce the default bit-for-bit.  This is the invariant
// that lets the team partition narrow MC without renumbering golden
// trajectories.

TEST(Blocking, AnyLegalBlockingIsBitIdentical) {
  isa_guard guard;
  const blas_int m = 300, n = 260, k = 300;  // several blocks each way
  const auto a = signed_random(static_cast<std::size_t>(m * k), 91);
  const auto b = signed_random(static_cast<std::size_t>(k * n), 92);
  for (const auto isa :
       {detail::kernel_isa::scalar, detail::kernel_isa::avx2,
        detail::kernel_isa::avx512}) {
    if (isa == detail::kernel_isa::avx2 &&
        !detail::avx2_kernels_available()) {
      continue;
    }
    if (isa == detail::kernel_isa::avx512 &&
        !detail::avx512_kernels_available()) {
      continue;
    }
    detail::set_kernel_isa(isa);
    const blas_int rq = detail::blocking_row_quantum(isa);
    const blas_int cq = detail::blocking_col_quantum(isa);
    std::vector<float> c_default(static_cast<std::size_t>(m * n), 0.5f);
    detail::gemm_blocked(transpose::none, transpose::none, m, n, k, 1.25f,
                         a.data(), m, b.data(), k, 0.75f, c_default.data(),
                         m);
    for (const auto bl : {detail::gemm_blocking{rq, cq},
                          detail::gemm_blocking{2 * rq, 4 * cq},
                          detail::gemm_blocking{8 * rq, 16 * cq}}) {
      std::vector<float> c_blocked(static_cast<std::size_t>(m * n), 0.5f);
      const detail::scoped_blocking scope(bl.mc, bl.nc);
      detail::gemm_blocked(transpose::none, transpose::none, m, n, k, 1.25f,
                           a.data(), m, b.data(), k, 0.75f, c_blocked.data(),
                           m);
      for (std::size_t i = 0; i < c_default.size(); ++i) {
        ASSERT_EQ(c_default[i], c_blocked[i])
            << "isa=" << detail::kernel_isa_name(isa) << " mc=" << bl.mc
            << " nc=" << bl.nc << " elem=" << i;
      }
    }
  }
}

TEST(Blocking, SplitModesBitIdenticalUnderRetunedBlocking) {
  // The same identity through the fused split engine (including the
  // native BF16 path where available): blocking is a performance knob,
  // never a numerics knob.
  isa_guard guard;
  const blas_int m = 150, n = 140, k = 330;
  const auto a = signed_random(static_cast<std::size_t>(m * k), 93);
  const auto b = signed_random(static_cast<std::size_t>(k * n), 94);
  for (const bool native : {false, true}) {
    if (native && !detail::avx512bf16_kernels_available()) continue;
    if (native) detail::set_kernel_isa(detail::kernel_isa::avx512);
    detail::set_bf16_native(native);
    std::vector<float> c_default(static_cast<std::size_t>(m * n), 0.5f);
    detail::sgemm_split(compute_mode::float_to_bf16x2, transpose::none,
                        transpose::none, m, n, k, 1.0f, a.data(), m, b.data(),
                        k, 1.0f, c_default.data(), m);
    const blas_int rq =
        detail::blocking_row_quantum(detail::active_kernel_isa());
    const blas_int cq =
        detail::blocking_col_quantum(detail::active_kernel_isa());
    for (const auto bl : {detail::gemm_blocking{rq, cq},
                          detail::gemm_blocking{4 * rq, 2 * cq}}) {
      std::vector<float> c_blocked(static_cast<std::size_t>(m * n), 0.5f);
      const detail::scoped_blocking scope(bl.mc, bl.nc);
      detail::sgemm_split(compute_mode::float_to_bf16x2, transpose::none,
                          transpose::none, m, n, k, 1.0f, a.data(), m,
                          b.data(), k, 1.0f, c_blocked.data(), m);
      for (std::size_t i = 0; i < c_default.size(); ++i) {
        ASSERT_EQ(c_default[i], c_blocked[i])
            << "native=" << native << " mc=" << bl.mc << " nc=" << bl.nc
            << " elem=" << i;
      }
    }
  }
}

TEST(Blocking, LegalizeRoundsToQuantaAndDefaults) {
  isa_guard guard;
  detail::set_kernel_isa(detail::kernel_isa::scalar);
  const auto isa = detail::kernel_isa::scalar;
  const blas_int rq = detail::blocking_row_quantum(isa);
  const blas_int cq = detail::blocking_col_quantum(isa);
  const auto def = detail::default_blocking(isa);
  // Non-positive requests resolve to the tier default.
  EXPECT_EQ(detail::legalize_blocking(isa, 0, 0), def);
  EXPECT_EQ(detail::legalize_blocking(isa, -4, -4), def);
  // Arbitrary requests land on quantum multiples, never zero.
  const auto tiny = detail::legalize_blocking(isa, 1, 1);
  EXPECT_EQ(tiny.mc, rq);
  EXPECT_EQ(tiny.nc, cq);
  const auto mid = detail::legalize_blocking(isa, 3 * rq + rq / 2 + 1,
                                             5 * cq + cq / 2 + 1);
  EXPECT_EQ(mid.mc % rq, 0);
  EXPECT_EQ(mid.nc % cq, 0);
  // Oversized requests clamp to the hard caps.
  const auto big = detail::legalize_blocking(isa, 1 << 20, 1 << 20);
  EXPECT_LE(big.mc, detail::kMaxBlockM);
  EXPECT_LE(big.nc, detail::kMaxBlockN);
  // A {0,0} scope is a no-op: effective_blocking stays the default.
  {
    const detail::scoped_blocking noop(0, 0);
    EXPECT_EQ(detail::effective_blocking(), def);
  }
  // Scopes nest and restore.
  {
    const detail::scoped_blocking outer(2 * rq, 2 * cq);
    EXPECT_EQ(detail::effective_blocking(),
              (detail::gemm_blocking{2 * rq, 2 * cq}));
    {
      const detail::scoped_blocking inner(rq, cq);
      EXPECT_EQ(detail::effective_blocking(),
                (detail::gemm_blocking{rq, cq}));
    }
    EXPECT_EQ(detail::effective_blocking(),
              (detail::gemm_blocking{2 * rq, 2 * cq}));
  }
  EXPECT_EQ(detail::effective_blocking(), def);
}

// ---------------------------------------------------------------------------
// Packing arena.

/// One complex GEMM through the fused complex engine, with unpadded
/// operands and C = op(A) * op(B).
template <typename R>
struct complex_call {
  transpose ta, tb;
  blas_int m, n, k;
  std::vector<std::complex<R>> a, b, c;

  complex_call(transpose ta_, transpose tb_, blas_int m_, blas_int n_,
               blas_int k_, unsigned seed)
      : ta(ta_), tb(tb_), m(m_), n(n_), k(k_),
        a(static_cast<std::size_t>(m * k)),
        b(static_cast<std::size_t>(k * n)),
        c(static_cast<std::size_t>(m * n)) {
    const auto re = signed_random(2 * (a.size() + b.size()), seed);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = {re[2 * i], re[2 * i + 1]};
    }
    const std::size_t off = 2 * a.size();
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = {re[off + 2 * i], re[off + 2 * i + 1]};
    }
  }

  void run(compute_mode mode) {
    detail::gemm_at_mode(mode, ta, tb, m, n, k, std::complex<R>(1), a.data(),
                         ta == transpose::none ? m : k, b.data(),
                         tb == transpose::none ? k : n, std::complex<R>(0),
                         c.data(), m);
  }
};

/// Grows the arena of every thread in the kernel team to the calling
/// thread's slot sizes, so calls the caller has already run serially find
/// their scratch whichever team thread runs which block.  The team is the
/// caller plus thread_count() - 1 pool workers; each of its thread_count()
/// tasks waits for all the others, so each runs on its own thread.
void grow_team_arenas() {
  std::size_t bytes[detail::kArenaSlots];
  const auto& mine = detail::pack_arena::for_thread();
  for (int s = 0; s < detail::kArenaSlots; ++s) bytes[s] = mine.capacity(s);
  const long team = sched::thread_count();
  std::atomic<long> arrived{0};
  sched::team_parallel_for(team, [&](long) {
    auto& arena = detail::pack_arena::for_thread();
    for (int s = 0; s < detail::kArenaSlots; ++s) {
      (void)arena.acquire<std::byte>(s, bytes[s]);
    }
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < team &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  ASSERT_EQ(arrived.load(), team) << "team tasks did not run concurrently";
}

TEST(PackArena, AllocationFreeAfterWarmup) {
  const blas_int m = 96, n = 80, k = 300;
  const auto a = signed_random(static_cast<std::size_t>(m * k), 11);
  const auto b = signed_random(static_cast<std::size_t>(k * n), 12);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  const auto run = [&](compute_mode mode) {
    scoped_compute_mode scope(mode);
    sgemm(transpose::none, transpose::none, m, n, k, 1.0f, a.data(), m,
          b.data(), k, 0.0f, c.data(), m);
  };
  // The complex engine, CGEMM and ZGEMM: the tiny preset's 8x8x512
  // overlap and 512x8x8 projection take the small path; 200x33x2100 is
  // blocked over several row blocks and streams its panels.
  const transpose C = transpose::conj_trans;
  const transpose N = transpose::none;
  complex_call<float> cgemms[] = {{C, N, 8, 8, 512, 13},
                                  {N, N, 512, 8, 8, 14},
                                  {C, N, 200, 33, 2100, 15}};
  complex_call<double> zgemms[] = {{C, N, 8, 8, 512, 16},
                                   {C, N, 200, 33, 2100, 17}};
  // The engine itself, without the dispatcher around the public call;
  // returns the operator new calls it made.
  const auto run_complex = [&] {
    const std::uint64_t heap_before = test::heap_allocations();
    for (const compute_mode mode :
         {compute_mode::standard, compute_mode::complex_3m,
          compute_mode::float_to_bf16x2}) {
      for (auto& call : cgemms) call.run(mode);
      for (auto& call : zgemms) call.run(mode);
    }
    return test::heap_allocations() - heap_before;
  };
  const auto run_all = [&] {
    run(compute_mode::standard);
    run(compute_mode::float_to_bf16x3);
    run(compute_mode::float_to_bf16x2);  // smaller footprint: no regrowth
    run(compute_mode::float_to_tf32);
    return run_complex();
  };

  // Serial: every block runs on this thread, so one warmup sizes its
  // arena for all of them.
  set_num_threads(1);
  (void)run_all();
  std::uint64_t after_warmup = detail::pack_arena::total_allocations();
  std::uint64_t complex_heap_calls = 0;
  for (int rep = 0; rep < 5; ++rep) complex_heap_calls += run_all();
  EXPECT_EQ(detail::pack_arena::total_allocations(), after_warmup)
      << "serial hot path allocated after warmup";
  EXPECT_EQ(complex_heap_calls, 0u)
      << "the serial complex engine called operator new after warmup";

  // Pooled: which team thread runs which row block varies from call to
  // call, so first grow every team arena to the serial sizes.
  set_num_threads(0);
  grow_team_arenas();
  after_warmup = detail::pack_arena::total_allocations();
  complex_heap_calls = 0;
  for (int rep = 0; rep < 5; ++rep) complex_heap_calls += run_all();
  EXPECT_EQ(detail::pack_arena::total_allocations(), after_warmup)
      << "pooled hot path allocated after warmup";
  EXPECT_EQ(complex_heap_calls, 0u)
      << "the pooled complex engine called operator new after warmup";
}

TEST(PackArena, GrowOnlyAndAlignment) {
  // Run on a fresh thread: its thread_local arena starts empty, so growth
  // behaviour is observable regardless of what earlier tests packed on the
  // main thread.
  std::thread([] {
    auto& arena = detail::pack_arena::for_thread();
    const std::uint64_t before = detail::pack_arena::total_allocations();
    float* small = arena.acquire<float>(detail::kArenaSlotB, 64);
    ASSERT_NE(small, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small) % kCacheLineBytes, 0u);
    // Growing reallocates; shrinking reuses.
    float* big = arena.acquire<float>(detail::kArenaSlotB, 1 << 16);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % kCacheLineBytes, 0u);
    float* again = arena.acquire<float>(detail::kArenaSlotB, 128);
    EXPECT_EQ(again, big);
    EXPECT_GE(detail::pack_arena::total_allocations(), before + 2);
    const std::uint64_t settled = detail::pack_arena::total_allocations();
    (void)arena.acquire<float>(detail::kArenaSlotB, 1 << 16);
    EXPECT_EQ(detail::pack_arena::total_allocations(), settled);
  }).join();
}

TEST(PackArena, ThreadSafetyAndIndependence) {
  // Concurrent GEMMs on distinct std::threads each use their own arena;
  // results must match a single-threaded run of the same problem.
  const blas_int m = 64, n = 64, k = 128;
  const auto a = signed_random(static_cast<std::size_t>(m * k), 21);
  const auto b = signed_random(static_cast<std::size_t>(k * n), 22);
  std::vector<float> expected(static_cast<std::size_t>(m * n));
  {
    scoped_compute_mode scope(compute_mode::float_to_bf16x2);
    sgemm(transpose::none, transpose::none, m, n, k, 1.0f, a.data(), m,
          b.data(), k, 0.0f, expected.data(), m);
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<float>> results(
      kThreads, std::vector<float>(static_cast<std::size_t>(m * n)));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      scoped_compute_mode scope(compute_mode::float_to_bf16x2);
      for (int rep = 0; rep < 3; ++rep) {
        sgemm(transpose::none, transpose::none, m, n, k, 1.0f, a.data(), m,
              b.data(), k, 0.0f, results[static_cast<std::size_t>(t)].data(),
              m);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(results[static_cast<std::size_t>(t)][i], expected[i])
          << "thread=" << t << " elem=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// DCMESH_KERNEL_ISA environment handling.  env_set drops the cached knob
// and set_kernel_isa(nullopt) hands control back to the environment, so
// the launch value does not mask the test values.

struct env_isa_guard {
  ~env_isa_guard() {
    env_unset("DCMESH_KERNEL_ISA");
    detail::set_kernel_isa(std::nullopt);
  }
};

TEST(KernelIsa, EnvScalarForcesScalar) {
  env_isa_guard guard;
  env_set("DCMESH_KERNEL_ISA", "Scalar");  // case-insensitive
  detail::set_kernel_isa(std::nullopt);
  EXPECT_EQ(detail::active_kernel_isa(), detail::kernel_isa::scalar);
}

TEST(KernelIsa, EnvAvx2HonouredOrFallsBack) {
  env_isa_guard guard;
  env_set("DCMESH_KERNEL_ISA", "avx2");
  detail::set_kernel_isa(std::nullopt);
  if (detail::avx2_kernels_available()) {
    EXPECT_EQ(detail::active_kernel_isa(), detail::kernel_isa::avx2);
  } else {
    // Unavailable: warn-once + scalar, never a throw.
    EXPECT_EQ(detail::active_kernel_isa(), detail::kernel_isa::scalar);
  }
}

TEST(KernelIsa, EnvAvx512HonouredOrFallsBackDownTheLadder) {
  env_isa_guard guard;
  env_set("DCMESH_KERNEL_ISA", "AVX512");  // case-insensitive
  detail::set_kernel_isa(std::nullopt);
  if (detail::avx512_kernels_available()) {
    EXPECT_EQ(detail::active_kernel_isa(), detail::kernel_isa::avx512);
  } else if (detail::avx2_kernels_available()) {
    // Unavailable tiers fall DOWN the ladder, one tier at a time.
    EXPECT_EQ(detail::active_kernel_isa(), detail::kernel_isa::avx2);
  } else {
    EXPECT_EQ(detail::active_kernel_isa(), detail::kernel_isa::scalar);
  }
}

TEST(KernelIsa, MalformedEnvFallsBackToAuto) {
  env_isa_guard guard;
  env_set("DCMESH_KERNEL_ISA", "sse9");
  detail::set_kernel_isa(std::nullopt);
  const detail::kernel_isa malformed = detail::active_kernel_isa();
  env_set("DCMESH_KERNEL_ISA", "auto");
  detail::set_kernel_isa(std::nullopt);
  EXPECT_EQ(malformed, detail::active_kernel_isa());
}

TEST(KernelIsa, InProcessOverrideWinsOverEnv) {
  env_isa_guard guard;
  env_set("DCMESH_KERNEL_ISA", "scalar");
  detail::set_kernel_isa(detail::kernel_isa::scalar);
  EXPECT_EQ(detail::active_kernel_isa(), detail::kernel_isa::scalar);
  EXPECT_EQ(detail::kernel_isa_name(detail::kernel_isa::scalar), "scalar");
  EXPECT_EQ(detail::kernel_isa_name(detail::kernel_isa::avx2), "avx2");
}

}  // namespace
}  // namespace dcmesh::blas
