// Tests for the strided batched GEMM.

#include "dcmesh/blas/gemm_batch.hpp"

#include <gtest/gtest.h>

#include <complex>
#include <string>
#include <vector>

#include "dcmesh/blas/autotune_hook.hpp"
#include "dcmesh/blas/gemm_ref.hpp"
#include "dcmesh/blas/precision_policy.hpp"
#include "dcmesh/common/rng.hpp"
#include "dcmesh/trace/metrics.hpp"
#include "dcmesh/trace/tracer.hpp"

namespace dcmesh::blas {
namespace {

TEST(GemmBatch, EachSlotMatchesSingleCall) {
  xoshiro256 rng(1);
  const blas_int m = 4, n = 3, k = 5, batch = 7;
  std::vector<double> a(m * k * batch), b(k * n * batch),
      c(m * n * batch, 0.5), c_ref(m * n * batch, 0.5);
  for (auto& x : a) x = rng.uniform(-1, 1);
  for (auto& x : b) x = rng.uniform(-1, 1);
  clear_compute_mode();
  gemm_batch_strided<double>(transpose::none, transpose::none, m, n, k, 1.5,
                             a.data(), m, m * k, b.data(), k, k * n, 2.0,
                             c.data(), m, m * n, batch);
  for (blas_int i = 0; i < batch; ++i) {
    detail::gemm_ref<double, double>(
        transpose::none, transpose::none, m, n, k, 1.5, a.data() + i * m * k,
        m, b.data() + i * k * n, k, 2.0, c_ref.data() + i * m * n, m);
  }
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], c_ref[i], 1e-12) << i;
  }
}

TEST(GemmBatch, SharedOperandViaZeroStride) {
  // One B shared across the batch (stride_b = 0).
  xoshiro256 rng(2);
  const blas_int m = 3, n = 3, k = 4, batch = 5;
  std::vector<float> a(m * k * batch), b(k * n), c(m * n * batch, 0.0f);
  for (auto& x : a) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-1, 1));
  clear_compute_mode();
  gemm_batch_strided<float>(transpose::none, transpose::none, m, n, k, 1.0f,
                            a.data(), m, m * k, b.data(), k, 0, 0.0f,
                            c.data(), m, m * n, batch);
  for (blas_int i = 0; i < batch; ++i) {
    std::vector<float> ref(m * n, 0.0f);
    detail::gemm_ref<float, double>(transpose::none, transpose::none, m, n,
                                    k, 1.0f, a.data() + i * m * k, m,
                                    b.data(), k, 0.0f, ref.data(), m);
    for (blas_int j = 0; j < m * n; ++j) {
      ASSERT_NEAR(c[i * m * n + j], ref[j], 1e-4f);
    }
  }
}

TEST(GemmBatch, ComplexHonoursComputeMode) {
  using C = std::complex<float>;
  xoshiro256 rng(3);
  const blas_int m = 6, n = 6, k = 64, batch = 3;
  std::vector<C> a(m * k * batch), b(k * n * batch);
  for (auto& x : a) {
    x = {static_cast<float>(rng.uniform(0.1, 1)),
         static_cast<float>(rng.uniform(0.1, 1))};
  }
  for (auto& x : b) {
    x = {static_cast<float>(rng.uniform(0.1, 1)),
         static_cast<float>(rng.uniform(0.1, 1))};
  }
  std::vector<C> c_std(m * n * batch), c_mode(m * n * batch);
  clear_compute_mode();
  gemm_batch_strided<C>(transpose::none, transpose::none, m, n, k, C(1),
                        a.data(), m, m * k, b.data(), k, k * n, C(0),
                        c_std.data(), m, m * n, batch);
  {
    scoped_compute_mode mode(compute_mode::float_to_bf16);
    gemm_batch_strided<C>(transpose::none, transpose::none, m, n, k, C(1),
                          a.data(), m, m * k, b.data(), k, k * n, C(0),
                          c_mode.data(), m, m * n, batch);
  }
  double max_diff = 0.0;
  for (std::size_t i = 0; i < c_std.size(); ++i) {
    max_diff = std::max(
        max_diff, static_cast<double>(std::abs(c_std[i] - c_mode[i])));
  }
  EXPECT_GT(max_diff, 0.0);
  EXPECT_LT(max_diff, 0.05 * std::abs(c_std[0]));
}

TEST(GemmBatch, ZeroBatchIsNoOp) {
  std::vector<double> c{42.0};
  gemm_batch_strided<double>(transpose::none, transpose::none, 1, 1, 1, 1.0,
                             nullptr, 1, 1, nullptr, 1, 1, 0.0, c.data(), 1,
                             1, 0);
  EXPECT_EQ(c[0], 42.0);
}

TEST(GemmBatch, OneSpanPerBatchedCall) {
  auto& collector = trace::tracer::instance();
  collector.set_enabled(true);
  collector.clear();

  xoshiro256 rng(4);
  const blas_int m = 4, n = 4, k = 4, batch = 5;
  std::vector<float> a(m * k * batch), b(k * n * batch), c(m * n * batch);
  for (auto& x : a) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-1, 1));
  clear_compute_mode();
  gemm_batch_strided<float>(transpose::none, transpose::none, m, n, k, 1.0f,
                            a.data(), m, m * k, b.data(), k, k * n, 0.0f,
                            c.data(), m, m * n, batch, "batch/span_site");

  std::size_t batch_spans = 0, per_element_spans = 0;
  for (const auto& event : collector.snapshot()) {
    if (event.category == "gemm_batch") ++batch_spans;
    if (event.category == "gemm") ++per_element_spans;
  }
  collector.set_enabled(false);
  collector.clear();

  // The whole batched call is ONE span (annotated with batch and
  // batch-total flops), not `batch` per-element spans.
  EXPECT_EQ(batch_spans, 1u);
  EXPECT_EQ(per_element_spans, 0u);
}

TEST(GemmBatch, MetricsAccumulateBatchTimesPerProblemFlops) {
  trace::clear_gemm_metrics();
  xoshiro256 rng(5);
  const blas_int m = 6, n = 5, k = 7, batch = 4;
  std::vector<float> a(m * k * batch), b(k * n * batch), c(m * n * batch);
  for (auto& x : a) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-1, 1));
  clear_compute_mode();
  gemm_batch_strided<float>(transpose::none, transpose::none, m, n, k, 1.0f,
                            a.data(), m, m * k, b.data(), k, k * n, 0.0f,
                            c.data(), m, m * n, batch, "batch/flops_site");

  const auto counters = trace::gemm_metrics_for("batch/flops_site");
  EXPECT_EQ(counters.calls, static_cast<std::uint64_t>(batch));
  EXPECT_DOUBLE_EQ(counters.flops, batch * 2.0 * m * n * k);
  trace::clear_gemm_metrics();
}

TEST(GemmBatch, AutoPolicyResolvesOncePerBatch) {
  // A counting stand-in for the autotuner: the batched call must consult
  // it exactly once, and every element must run at its answer.
  static int hook_calls;
  hook_calls = 0;
  set_auto_tune_hook([](const auto_tune_request& request)
                         -> std::optional<auto_tune_choice> {
    ++hook_calls;
    EXPECT_EQ(request.routine, "SGEMM");
    return auto_tune_choice{compute_mode::float_to_bf16x3,
                            auto_provenance::modeled, 1.0};
  });
  set_policy(parse_policy("batch/auto_site=AUTO"));
  trace::clear_gemm_metrics();

  xoshiro256 rng(6);
  const blas_int m = 4, n = 4, k = 8, batch = 6;
  std::vector<float> a(m * k * batch), b(k * n * batch), c(m * n * batch);
  for (auto& x : a) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-1, 1));
  gemm_batch_strided<float>(transpose::none, transpose::none, m, n, k, 1.0f,
                            a.data(), m, m * k, b.data(), k, k * n, 0.0f,
                            c.data(), m, m * n, batch, "batch/auto_site");

  EXPECT_EQ(hook_calls, 1);
  const auto counters = trace::gemm_metrics_for("batch/auto_site");
  EXPECT_EQ(counters.calls, static_cast<std::uint64_t>(batch));
  const auto mode_it = counters.mode_calls.find("FLOAT_TO_BF16X3");
  ASSERT_NE(mode_it, counters.mode_calls.end());
  EXPECT_EQ(mode_it->second, static_cast<std::uint64_t>(batch));

  set_auto_tune_hook({});
  clear_policy();
  trace::clear_gemm_metrics();
}

TEST(GemmBatch, OverlapValidation) {
  std::vector<double> buf(64, 0.0);
  // stride_c smaller than one C footprint must throw.
  EXPECT_THROW(gemm_batch_strided<double>(
                   transpose::none, transpose::none, 2, 2, 2, 1.0,
                   buf.data(), 2, 4, buf.data() + 16, 2, 4, 0.0,
                   buf.data() + 32, 2, /*stride_c=*/2, 3),
               std::invalid_argument);
  EXPECT_THROW(gemm_batch_strided<double>(
                   transpose::none, transpose::none, 2, 2, 2, 1.0,
                   buf.data(), 2, /*stride_a=*/1, buf.data() + 16, 2, 4,
                   0.0, buf.data() + 32, 2, 4, 3),
               std::invalid_argument);
  EXPECT_THROW(gemm_batch_strided<double>(
                   transpose::none, transpose::none, 1, 1, 1, 1.0,
                   buf.data(), 1, 1, buf.data(), 1, 1, 0.0, buf.data(), 1,
                   1, -1),
               std::invalid_argument);
}

}  // namespace
}  // namespace dcmesh::blas
