// Unit tests for the FP32 -> BF16^N / TF32 operand decomposition (internal
// split machinery behind the FLOAT_TO_* compute modes).

#include "split_reference.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dcmesh/common/rng.hpp"

namespace dcmesh::blas::detail {
namespace {

TEST(SplitSpec, ModeProperties) {
  EXPECT_EQ(split_for(compute_mode::float_to_bf16).components, 1);
  EXPECT_EQ(split_for(compute_mode::float_to_bf16x2).components, 2);
  EXPECT_EQ(split_for(compute_mode::float_to_bf16x3).components, 3);
  EXPECT_EQ(split_for(compute_mode::float_to_tf32).components, 1);
  EXPECT_EQ(split_for(compute_mode::standard).components, 0);
  EXPECT_EQ(split_for(compute_mode::complex_3m).components, 0);

  EXPECT_TRUE(is_split_mode(compute_mode::float_to_bf16));
  EXPECT_TRUE(is_split_mode(compute_mode::float_to_tf32));
  EXPECT_FALSE(is_split_mode(compute_mode::standard));
  EXPECT_FALSE(is_split_mode(compute_mode::complex_3m));
}

TEST(RetainedProducts, CountsMatchTable2) {
  EXPECT_EQ(retained_products(1).size(), 1u);
  EXPECT_EQ(retained_products(2).size(), 3u);
  EXPECT_EQ(retained_products(3).size(), 6u);
}

TEST(RetainedProducts, OrderedByTotalOrderDominantFirst) {
  const auto pairs = retained_products(3);
  ASSERT_EQ(pairs.size(), 6u);
  EXPECT_EQ(pairs[0], (std::pair<int, int>{0, 0}));
  // All pairs have i + j <= 2 and are unique.
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_LE(pairs[p].first + pairs[p].second, 2);
    for (std::size_t q = p + 1; q < pairs.size(); ++q) {
      EXPECT_NE(pairs[p], pairs[q]);
    }
  }
  // Non-decreasing total order (dominant contributions accumulate first).
  for (std::size_t p = 1; p < pairs.size(); ++p) {
    EXPECT_GE(pairs[p].first + pairs[p].second,
              pairs[p - 1].first + pairs[p - 1].second);
  }
}

TEST(SplitOperand, FirstComponentIsRounding) {
  xoshiro256 rng(1);
  std::vector<float> x(64);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-10, 10));
  const auto comps =
      split_operand(x.data(), 8, 8, 8, split_for(compute_mode::float_to_bf16));
  ASSERT_EQ(comps.size(), 1u);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(comps[0].data()[i], round_to_bf16(x[i]));
  }
}

class SplitReconstruction : public ::testing::TestWithParam<int> {};

TEST_P(SplitReconstruction, ComponentSumConverges) {
  const int n_comp = GetParam();
  const split_spec spec{n_comp, round_kind::bf16};
  xoshiro256 rng(2);
  std::vector<float> x(256);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-100, 100));
  const auto comps = split_operand(x.data(), 16, 16, 16, spec);
  ASSERT_EQ(comps.size(), static_cast<std::size_t>(n_comp));
  const double bound = std::ldexp(1.0, -8 * n_comp + 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    double sum = 0.0;
    for (const auto& c : comps) sum += c.data()[i];
    EXPECT_LE(std::abs(sum - x[i]), bound * std::abs(x[i]) + 1e-30)
        << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Components, SplitReconstruction,
                         ::testing::Values(1, 2, 3));

TEST(SplitOperand, RespectsLeadingDimension) {
  // 2x2 logical matrix stored with ld = 4; rows 2..3 are padding that must
  // not leak into the components.
  std::vector<float> x{1.0f, 2.0f, 99.0f, 99.0f, 3.0f, 4.0f, 99.0f, 99.0f};
  const auto comps = split_operand(x.data(), 2, 2, 4,
                                   split_for(compute_mode::float_to_bf16));
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0](0, 0), 1.0f);
  EXPECT_EQ(comps[0](1, 0), 2.0f);
  EXPECT_EQ(comps[0](0, 1), 3.0f);
  EXPECT_EQ(comps[0](1, 1), 4.0f);
  EXPECT_EQ(comps[0].rows(), 2u);
}

TEST(SplitOperand, ExactBf16InputsHaveZeroResiduals) {
  std::vector<float> x{1.0f, -0.5f, 2.0f, 0.25f};
  const auto comps = split_operand(x.data(), 2, 2, 2,
                                   split_for(compute_mode::float_to_bf16x3));
  ASSERT_EQ(comps.size(), 3u);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(comps[0].data()[i], x[i]);
    EXPECT_EQ(comps[1].data()[i], 0.0f);
    EXPECT_EQ(comps[2].data()[i], 0.0f);
  }
}

TEST(SplitOperand, Tf32Rounding) {
  xoshiro256 rng(3);
  std::vector<float> x(64);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  const auto comps = split_operand(x.data(), 8, 8, 8,
                                   split_for(compute_mode::float_to_tf32));
  ASSERT_EQ(comps.size(), 1u);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(comps[0].data()[i], round_to_tf32(x[i]));
  }
}

}  // namespace
}  // namespace dcmesh::blas::detail
