// Unit tests for the level-1 BLAS routines.

#include "dcmesh/blas/level1.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <type_traits>
#include <vector>

namespace dcmesh::blas {
namespace {

using cf = std::complex<float>;
using cd = std::complex<double>;

TEST(Level1, AxpyContiguous) {
  std::vector<double> x{1, 2, 3}, y{10, 20, 30};
  axpy<double>(3, 2.0, x.data(), 1, y.data(), 1);
  EXPECT_EQ(y, (std::vector<double>{12, 24, 36}));
}

TEST(Level1, AxpyStrided) {
  std::vector<float> x{1, 0, 2, 0, 3};
  std::vector<float> y{1, 1, 1};
  axpy<float>(3, 1.0f, x.data(), 2, y.data(), 1);
  EXPECT_EQ(y, (std::vector<float>{2, 3, 4}));
}

TEST(Level1, AxpyNegativeStrideReverses) {
  // Reference-BLAS semantics: negative incx walks x backwards.
  std::vector<double> x{1, 2, 3}, y{0, 0, 0};
  axpy<double>(3, 1.0, x.data(), -1, y.data(), 1);
  EXPECT_EQ(y, (std::vector<double>{3, 2, 1}));
}

TEST(Level1, AxpyAlphaZeroNoOp) {
  std::vector<double> y{5, 5};
  axpy<double>(2, 0.0, nullptr, 1, y.data(), 1);
  EXPECT_EQ(y[0], 5);
}

TEST(Level1, AxpyComplex) {
  std::vector<cf> x{{1, 1}}, y{{0, 0}};
  axpy<cf>(1, cf(0, 1), x.data(), 1, y.data(), 1);
  EXPECT_EQ(y[0], cf(-1, 1));  // i*(1+i) = -1+i
}

TEST(Level1, ScalAndScalReal) {
  std::vector<cd> x{{1, 2}, {3, 4}};
  scal<cd>(2, cd(2, 0), x.data(), 1);
  EXPECT_EQ(x[0], cd(2, 4));
  scal_real<double>(2, 0.5, x.data(), 1);
  EXPECT_EQ(x[1], cd(3, 4));
}

TEST(Level1, CopyStrided) {
  std::vector<int>::size_type n = 3;
  std::vector<double> x{1, 2, 3};
  std::vector<double> y(5, 0.0);
  copy<double>(static_cast<blas_int>(n), x.data(), 1, y.data(), 2);
  EXPECT_EQ(y, (std::vector<double>{1, 0, 2, 0, 3}));
}

TEST(Level1, Nrm2Basics) {
  std::vector<double> x{3, 4};
  EXPECT_NEAR(nrm2<double>(2, x.data(), 1), 5.0, 1e-14);
  std::vector<cf> z{{3, 4}};
  EXPECT_NEAR(nrm2<cf>(1, z.data(), 1), 5.0, 1e-6);
}

TEST(Level1, Nrm2AvoidsOverflow) {
  // Naive sum-of-squares would overflow FP64 here; the scaled form must
  // not.
  std::vector<double> x{1e200, 1e200};
  EXPECT_NEAR(nrm2<double>(2, x.data(), 1), 1e200 * std::sqrt(2.0), 1e187);
}

TEST(Level1, Nrm2AvoidsUnderflow) {
  std::vector<double> x{1e-200, 1e-200};
  EXPECT_NEAR(nrm2<double>(2, x.data(), 1), 1e-200 * std::sqrt(2.0), 1e-213);
}

/// Exact-enough reference: long double sum of double squares.
template <typename T>
double nrm2_reference(const std::vector<T>& x, std::size_t n,
                      std::size_t inc) {
  long double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::complex<long double> v(x[i * inc]);
    sum += std::norm(v);
  }
  return static_cast<double>(std::sqrt(sum));
}

template <typename T>
void nrm2_matches_long_double() {
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> u(-2.0f, 2.0f);
  for (const std::size_t n : {0, 1, 15, 16, 17, 4096, 5000}) {
    for (const std::size_t inc : {1, 3}) {
      std::vector<T> x(std::max<std::size_t>(n * inc, 1));
      for (auto& v : x) {
        if constexpr (std::is_same_v<T, float>) {
          v = u(rng);
        } else {
          v = T(u(rng), u(rng));
        }
      }
      const double want = nrm2_reference(x, n, inc);
      const double got = nrm2<T>(static_cast<blas_int>(n), x.data(),
                                 static_cast<blas_int>(inc));
      EXPECT_LE(std::abs(got - want), 1e-12 * want) << n << " inc " << inc;
    }
  }
}

TEST(Level1, Nrm2FloatMatchesLongDouble) {
  nrm2_matches_long_double<float>();
}

TEST(Level1, Nrm2ComplexFloatMatchesLongDouble) {
  nrm2_matches_long_double<cf>();
}

TEST(Level1, Nrm2FloatStrideChangesNoBits) {
  // One lane assignment for every stride: a strided vector's norm is the
  // contiguous one, bit for bit.
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> u(-1.0f, 1.0f);
  std::vector<cf> dense(1000), spread(3 * 1000);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    dense[i] = spread[3 * i] = cf(u(rng), u(rng));
  }
  EXPECT_EQ(nrm2<cf>(1000, dense.data(), 1),
            nrm2<cf>(1000, spread.data(), 3));
}

TEST(Level1, Nrm2FloatExtremesNeedNoScaling) {
  const float big = std::numeric_limits<float>::max();
  const std::vector<float> x{big, big};
  EXPECT_EQ(nrm2<float>(2, x.data(), 1),
            std::sqrt(2.0 * static_cast<double>(big) * big));
  const std::vector<cf> z{{big, big}, {-big, big}};
  EXPECT_EQ(nrm2<cf>(2, z.data(), 1), 2.0 * static_cast<double>(big));

  const float tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<float> sub{tiny, tiny, tiny, tiny};
  EXPECT_EQ(nrm2<float>(4, sub.data(), 1), 2.0 * static_cast<double>(tiny));
  const std::vector<cf> zsub{{tiny, 0.0f}, {0.0f, tiny}};
  EXPECT_EQ(nrm2<cf>(2, zsub.data(), 1),
            std::sqrt(2.0) * static_cast<double>(tiny));
}

TEST(Level1, Nrm2FloatPropagatesNanAndInf) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> x(40, 1.0f);
  x[17] = nan;
  EXPECT_TRUE(std::isnan(nrm2<float>(40, x.data(), 1)));
  x[17] = inf;
  EXPECT_EQ(nrm2<float>(40, x.data(), 1), inf);
  x[3] = nan;  // NaN beside an inf still reads NaN
  EXPECT_TRUE(std::isnan(nrm2<float>(40, x.data(), 1)));

  std::vector<cf> z(60, cf(1.0f, 1.0f));
  z[15] = cf(1.0f, nan);
  EXPECT_TRUE(std::isnan(nrm2<cf>(20, z.data(), 3)));
  z[15] = cf(-inf, 1.0f);
  EXPECT_EQ(nrm2<cf>(20, z.data(), 3), inf);
}

TEST(Level1, DotuAndDotc) {
  std::vector<cf> x{{1, 2}}, y{{3, 4}};
  EXPECT_EQ(dotu<cf>(1, x.data(), 1, y.data(), 1),
            cf(-5, 10));  // (1+2i)(3+4i)
  EXPECT_EQ(dotc<cf>(1, x.data(), 1, y.data(), 1),
            cf(11, -2));  // (1-2i)(3+4i)
  std::vector<double> a{1, 2}, b{3, 4};
  EXPECT_EQ(dotu<double>(2, a.data(), 1, b.data(), 1), 11.0);
  EXPECT_EQ(dotc<double>(2, a.data(), 1, b.data(), 1), 11.0);
}

TEST(Level1, AsumConvention) {
  std::vector<cf> z{{3, -4}, {-1, 2}};
  // Reference asum for complex: |re| + |im| per element.
  EXPECT_NEAR(asum<cf>(2, z.data(), 1), 3 + 4 + 1 + 2, 1e-6);
  std::vector<double> x{-1, 2, -3};
  EXPECT_NEAR(asum<double>(3, x.data(), 1), 6.0, 1e-14);
}

TEST(Level1, Iamax) {
  std::vector<double> x{1, -7, 3};
  EXPECT_EQ(iamax<double>(3, x.data(), 1), 1);
  EXPECT_EQ(iamax<double>(0, x.data(), 1), -1);
  // First of equals wins (reference semantics).
  std::vector<double> eq{5, 5};
  EXPECT_EQ(iamax<double>(2, eq.data(), 1), 0);
}

TEST(Level1, ZeroIncrementThrows) {
  std::vector<double> x{1}, y{1};
  EXPECT_THROW(axpy<double>(1, 1.0, x.data(), 0, y.data(), 1),
               std::invalid_argument);
  EXPECT_THROW((void)nrm2<double>(1, x.data(), 0), std::invalid_argument);
  EXPECT_THROW((void)dotc<double>(1, x.data(), 1, y.data(), 0),
               std::invalid_argument);
}

TEST(Level1, EmptyVectorsAreSafe) {
  EXPECT_EQ(nrm2<double>(0, nullptr, 1), 0.0);
  EXPECT_EQ(asum<double>(-3, nullptr, 1), 0.0);
  EXPECT_EQ(dotu<double>(0, nullptr, 1, nullptr, 1), 0.0);
}

}  // namespace
}  // namespace dcmesh::blas
