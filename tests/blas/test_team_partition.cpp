// Tests for the team partition (blocking.hpp): the tile quanta every
// blocking is legalized to, the partition rule itself, and that every
// GEMM engine gives the same bits on a 1-thread and a 3-thread team and
// under a scoped blocking, against its oracle (complex_reference.hpp,
// split_reference.hpp).

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "blocking.hpp"
#include "complex_kernel.hpp"
#include "complex_reference.hpp"
#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/compute_mode.hpp"
#include "dcmesh/common/rng.hpp"
#include "dcmesh/sched/config.hpp"
#include "gemm_kernel.hpp"
#include "gemm_modes.hpp"
#include "kernel_isa.hpp"
#include "microkernel.hpp"
#include "split.hpp"
#include "split_reference.hpp"

namespace dcmesh::blas {
namespace {

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

/// Restores the environment's ISA, BF16 engine and thread count on exit.
struct team_guard {
  ~team_guard() {
    detail::set_kernel_isa(std::nullopt);
    detail::set_bf16_native(std::nullopt);
    sched::set_thread_count(0);
  }
};

TEST(TeamPartition, QuantaCoverEveryEngineTile) {
  team_guard guard;
  for (const auto isa : available_isas()) {
    detail::set_kernel_isa(isa);
    const blas_int rq = detail::blocking_row_quantum(isa);
    const blas_int cq = detail::blocking_col_quantum(isa);
    const auto f32 = detail::select_kernel_desc<float>();
    const auto f64 = detail::select_kernel_desc<double>();
    const char* tier = detail::kernel_isa_name(isa).data();
    for (const blas_int mr :
         {blas_int{f32.mr}, blas_int{f64.mr},
          blas_int{detail::kComplexMr<float>},
          blas_int{detail::kComplexMr<double>}}) {
      EXPECT_EQ(rq % mr, 0) << tier << " mr=" << mr;
    }
    for (const blas_int nr :
         {blas_int{f32.nr}, blas_int{f64.nr}, blas_int{detail::kComplexNr}}) {
      EXPECT_EQ(cq % nr, 0) << tier << " nr=" << nr;
    }
    const auto def = detail::default_blocking(isa);
    EXPECT_EQ(def.mc % rq, 0) << tier;
    EXPECT_EQ(def.nc % cq, 0) << tier;
  }
}

TEST(TeamPartition, NarrowsOnlyLargeCallsToWholeStrips) {
  const detail::gemm_blocking blk{72, 512};
  const double large = 4 * detail::kSmallMacs;
  const auto mc = [&](blas_int m, double macs, int mr, int team) {
    const auto b = detail::blocking_for_team(blk, m, macs, mr, team);
    EXPECT_EQ(b.nc, blk.nc);
    return b.mc;
  };
  // Small calls, a one-thread team, and calls with a block per member
  // keep the blocking.
  EXPECT_EQ(mc(128, detail::kSmallMacs, 6, 3), 72);
  EXPECT_EQ(mc(128, large, 6, 1), 72);
  EXPECT_EQ(mc(600, large, 6, 3), 72);
  // 128 rows = 22 strips of 6: three blocks of 8, 8 and 6 strips.
  EXPECT_EQ(mc(128, large, 6, 3), 48);
  // 32 complex rows = 4 strips of 8: two blocks of two strips.
  EXPECT_EQ(mc(32, large, 8, 3), 16);
  // 16 complex rows = 2 strips of 8: one block each.
  EXPECT_EQ(mc(16, large, 8, 3), 8);

  // Over a grid: MC only narrows, to whole strips, and then gives the
  // team at most one block per member.
  for (const int mr : {4, 6, 8, 14}) {
    for (blas_int m = 1; m <= 300; m += 7) {
      for (int team = 1; team <= 8; ++team) {
        const blas_int got = mc(m, large, mr, team);
        ASSERT_LE(got, blk.mc);
        if (got != blk.mc) {
          ASSERT_EQ(got % mr, 0) << got;
          ASSERT_LE((m + got - 1) / got, team) << "m=" << m << " mr=" << mr;
        }
      }
    }
  }
}

template <typename T>
std::vector<T> random_values(std::size_t n, unsigned seed) {
  xoshiro256 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) {
    if constexpr (std::is_floating_point_v<T>) {
      x = static_cast<T>(rng.uniform(-1.0, 1.0));
    } else {
      x = {static_cast<typename T::value_type>(rng.uniform(-1.0, 1.0)),
           static_cast<typename T::value_type>(rng.uniform(-1.0, 1.0))};
    }
  }
  return v;
}

/// One C^H*N-shaped call of every engine, large enough to be shared
/// (over kSmallMacs multiply-adds), and each engine's result computed
/// once by its oracle on a one-thread team.
struct shape_case {
  blas_int m, n, k;
  compute_mode split_mode;
  std::vector<float> ra, rb;
  std::vector<std::complex<float>> ca, cb;
  std::vector<float> real_blocked, real_split, real_at_mode;
  std::vector<std::complex<float>> cstandard, c3m, csplit;

  shape_case(blas_int m_, blas_int n_, compute_mode mode, unsigned seed)
      : m(m_),
        n(n_),
        k(static_cast<blas_int>(detail::kSmallMacs) / (m_ * n_) + 300),
        split_mode(mode),
        ra(random_values<float>(static_cast<std::size_t>(k * m), seed)),
        rb(random_values<float>(static_cast<std::size_t>(k * n), seed + 1)),
        ca(random_values<std::complex<float>>(
            static_cast<std::size_t>(k * m), seed + 2)),
        cb(random_values<std::complex<float>>(
            static_cast<std::size_t>(k * n), seed + 3)) {
    // The blocked core's oracle is itself, unshared; so is the real
    // split dispatch, which runs the native BF16 engine where active.
    real_blocked = run_blocked();
    real_at_mode = run_at_mode();
    real_split = c_init<float>();
    detail::sgemm_split_reference(split_mode, transpose::trans,
                                  transpose::none, m, n, k, 0.75f, ra.data(),
                                  k, rb.data(), k, 0.5f, real_split.data(),
                                  m);
    cstandard = complex_reference(compute_mode::standard);
    c3m = complex_reference(compute_mode::complex_3m);
    csplit = complex_reference(split_mode);
  }

  template <typename T>
  std::vector<T> c_init() const {
    return random_values<T>(static_cast<std::size_t>(m * n), 77);
  }

  std::vector<float> run_blocked() const {
    auto c = c_init<float>();
    detail::gemm_blocked(transpose::trans, transpose::none, m, n, k, 0.75f,
                         ra.data(), k, rb.data(), k, 0.5f, c.data(), m);
    return c;
  }

  std::vector<float> run_split() const {
    auto c = c_init<float>();
    detail::sgemm_split(split_mode, transpose::trans, transpose::none, m, n,
                        k, 0.75f, ra.data(), k, rb.data(), k, 0.5f, c.data(),
                        m);
    return c;
  }

  std::vector<float> run_at_mode() const {
    auto c = c_init<float>();
    detail::gemm_at_mode(split_mode, transpose::trans, transpose::none, m, n,
                         k, 0.75f, ra.data(), k, rb.data(), k, 0.5f, c.data(),
                         m);
    return c;
  }

  std::vector<std::complex<float>> complex_reference(
      compute_mode mode) const {
    auto c = c_init<std::complex<float>>();
    detail::complex_gemm_reference(mode, transpose::conj_trans,
                                   transpose::none, m, n, k, {0.75f, 0.0f},
                                   ca.data(), k, cb.data(), k, {0.5f, 0.0f},
                                   c.data(), m);
    return c;
  }

  std::vector<std::complex<float>> run_complex(compute_mode mode) const {
    auto c = c_init<std::complex<float>>();
    detail::gemm_at_mode(mode, transpose::conj_trans, transpose::none, m, n,
                         k, {0.75f, 0.0f}, ca.data(), k, cb.data(), k,
                         {0.5f, 0.0f}, c.data(), m);
    return c;
  }
};

template <typename T>
bool same_bits(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

TEST(TeamPartition, EveryEngineSameBitsOnOneAndThreeThreads) {
  team_guard guard;
  constexpr compute_mode kSplitModes[] = {
      compute_mode::float_to_bf16, compute_mode::float_to_bf16x2,
      compute_mode::float_to_bf16x3, compute_mode::float_to_tf32};
  // On the avx512 tier of AVX512-BF16 silicon the real split dispatch
  // runs the native engine (its own partition, its own bits).
  detail::set_bf16_native(true);
  for (const auto isa : available_isas()) {
    detail::set_kernel_isa(isa);
    const blas_int rq = detail::blocking_row_quantum(isa);
    const blas_int cq = detail::blocking_col_quantum(isa);
    unsigned index = 0;
    for (const blas_int m : {5, 16, 32, 128, 130}) {
      for (const blas_int n : {16, 32, 128}) {
        sched::set_thread_count(1);
        const shape_case s(m, n, kSplitModes[index % 4], 300 + index);
        ++index;
        for (const int team : {1, 3}) {
          sched::set_thread_count(team);
          ASSERT_EQ(sched::team_size(), team);
          for (const bool scoped : {false, true}) {
            const detail::scoped_blocking scope(scoped ? rq : 0,
                                                scoped ? cq : 0);
            const std::string where =
                std::string(detail::kernel_isa_name(isa)) +
                " m=" + std::to_string(m) + " n=" + std::to_string(n) +
                " k=" + std::to_string(s.k) + " team=" +
                std::to_string(team) + " scoped=" + std::to_string(scoped) +
                " split=" + std::string(name(s.split_mode));
            ASSERT_TRUE(same_bits(s.run_blocked(), s.real_blocked))
                << "gemm_blocked " << where;
            ASSERT_TRUE(same_bits(s.run_split(), s.real_split))
                << "sgemm_split " << where;
            ASSERT_TRUE(same_bits(s.run_at_mode(), s.real_at_mode))
                << "sgemm split dispatch, native="
                << detail::bf16_native_active() << " " << where;
            ASSERT_TRUE(same_bits(s.run_complex(compute_mode::standard),
                                  s.cstandard))
                << "cgemm standard " << where;
            ASSERT_TRUE(same_bits(s.run_complex(compute_mode::complex_3m),
                                  s.c3m))
                << "cgemm 3m " << where;
            ASSERT_TRUE(same_bits(s.run_complex(s.split_mode), s.csplit))
                << "cgemm split " << where;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dcmesh::blas
