// Unit tests for the MKL_VERBOSE-style call log (the measurement channel
// behind Tables VI-VII and Figure 3b).

#include "dcmesh/blas/verbose.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/gemm_call.hpp"
#include "dcmesh/blas/trsm.hpp"
#include "dcmesh/common/env.hpp"
#include "dcmesh/common/rng.hpp"
#include "dcmesh/resil/abft.hpp"
#include "dcmesh/resil/fault_plan.hpp"
#include "dcmesh/resil/health.hpp"
#include "dcmesh/trace/metrics.hpp"
#include "dcmesh/trace/tracer.hpp"

namespace dcmesh::blas {
namespace {

/// A JSONL path under TempDir() unique to this process, so concurrent
/// test_blas runs do not write or remove each other's sink files.
std::string per_process_path(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + "." + std::to_string(getpid()) +
         ".jsonl";
}

class VerboseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear_compute_mode();
    clear_call_log();
    env_unset(kVerboseEnvVar);
  }
  void TearDown() override {
    clear_compute_mode();
    clear_call_log();
    env_unset(kVerboseEnvVar);
  }
};

TEST_F(VerboseTest, CallsAreRecordedWithDimensions) {
  std::vector<float> a(6, 1.0f), b(8, 1.0f), c(12, 0.0f);
  sgemm(transpose::none, transpose::none, 3, 4, 2, 1.0f, a.data(), 3,
        b.data(), 2, 0.0f, c.data(), 3);
  const auto log = recent_calls();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].routine, "SGEMM");
  EXPECT_EQ(log[0].m, 3);
  EXPECT_EQ(log[0].n, 4);
  EXPECT_EQ(log[0].k, 2);
  EXPECT_EQ(log[0].transa, 'N');
  EXPECT_EQ(log[0].transb, 'N');
  EXPECT_EQ(log[0].lda, 3);
  EXPECT_GE(log[0].seconds, 0.0);
  EXPECT_DOUBLE_EQ(log[0].flops, 2.0 * 3 * 4 * 2);
  EXPECT_EQ(log[0].mode, compute_mode::standard);
}

TEST_F(VerboseTest, ActiveModeIsLogged) {
  std::vector<float> a(4, 1.0f), b(4, 1.0f), c(4, 0.0f);
  {
    scoped_compute_mode mode(compute_mode::float_to_tf32);
    sgemm(transpose::none, transpose::none, 2, 2, 2, 1.0f, a.data(), 2,
          b.data(), 2, 0.0f, c.data(), 2);
  }
  ASSERT_EQ(recent_calls().size(), 1u);
  EXPECT_EQ(recent_calls()[0].mode, compute_mode::float_to_tf32);
}

TEST_F(VerboseTest, ComplexCallsLogEightMnkFlops) {
  using C = std::complex<float>;
  std::vector<C> a(4), b(4), c(4);
  cgemm(transpose::conj_trans, transpose::none, 2, 2, 2, C(1), a.data(), 2,
        b.data(), 2, C(0), c.data(), 2);
  ASSERT_EQ(recent_calls().size(), 1u);
  EXPECT_EQ(recent_calls()[0].routine, "CGEMM");
  EXPECT_EQ(recent_calls()[0].transa, 'C');
  EXPECT_DOUBLE_EQ(recent_calls()[0].flops, 8.0 * 2 * 2 * 2);
}

TEST_F(VerboseTest, CountersAccumulateAndClear) {
  std::vector<double> a(1, 1.0), b(1, 1.0), c(1, 0.0);
  for (int i = 0; i < 5; ++i) {
    dgemm(transpose::none, transpose::none, 1, 1, 1, 1.0, a.data(), 1,
          b.data(), 1, 0.0, c.data(), 1);
  }
  EXPECT_EQ(call_count(), 5u);
  clear_call_log();
  EXPECT_EQ(call_count(), 0u);
  EXPECT_TRUE(recent_calls().empty());
}

TEST_F(VerboseTest, LineFormatMatchesMklStyle) {
  call_record record;
  record.routine = "SGEMM";
  record.transa = 'N';
  record.transb = 'T';
  record.m = 128;
  record.n = 896;
  record.k = 262144;
  record.lda = 128;
  record.ldb = 896;
  record.ldc = 128;
  record.seconds = 0.012345;
  record.mode = compute_mode::float_to_bf16;
  const std::string line = record.to_string();
  EXPECT_NE(line.find("MKL_VERBOSE SGEMM(N,T,128,896,262144)"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("mode:FLOAT_TO_BF16"), std::string::npos) << line;
  EXPECT_NE(line.find("ms"), std::string::npos) << line;
}

TEST_F(VerboseTest, VerboseEnabledFollowsEnv) {
  EXPECT_FALSE(verbose_enabled());
  env_set(kVerboseEnvVar, "2");
  EXPECT_TRUE(verbose_enabled());
  env_set(kVerboseEnvVar, "0");
  EXPECT_FALSE(verbose_enabled());
}

TEST_F(VerboseTest, UntaggedLineHasNoPolicyFields) {
  // Compatibility: untagged, unguarded records must render exactly the
  // pre-policy MKL_VERBOSE line — no site/src/fallback suffix.
  std::vector<float> a(4, 1.0f), b(4, 1.0f), c(4, 0.0f);
  sgemm(transpose::none, transpose::none, 2, 2, 2, 1.0f, a.data(), 2,
        b.data(), 2, 0.0f, c.data(), 2);
  const std::string line = recent_calls()[0].to_string();
  EXPECT_EQ(line.find(" site:"), std::string::npos) << line;
  EXPECT_EQ(line.find(" src:"), std::string::npos) << line;
  EXPECT_EQ(line.find(" fallback:"), std::string::npos) << line;
}

TEST_F(VerboseTest, TaggedLineCarriesSiteSourceAndFallback) {
  call_record record;
  record.routine = "CGEMM";
  record.m = record.n = record.k = 8;
  record.lda = record.ldb = record.ldc = 8;
  record.mode = compute_mode::float_to_tf32;
  record.call_site = "lfd/remap_occ/overlap";
  record.source = policy_source::site_policy;
  record.requested_mode = compute_mode::float_to_bf16;
  record.fallback = fallback_verdict::promoted;
  record.guard_residual = 3.2e-3;
  record.attempts = 2;
  const std::string line = record.to_string();
  EXPECT_NE(line.find("site:lfd/remap_occ/overlap"), std::string::npos)
      << line;
  EXPECT_NE(line.find("src:site_policy"), std::string::npos) << line;
  EXPECT_NE(line.find("fallback:promoted"), std::string::npos) << line;
  EXPECT_NE(line.find("from=FLOAT_TO_BF16"), std::string::npos) << line;
}

TEST_F(VerboseTest, UnwritableJsonSinkWarnsAndKeepsRunning) {
  // An unwritable MKL_VERBOSE_JSON path must not throw, abort, or lose
  // the in-memory call log — the sink is best-effort telemetry.
  env_set(kVerboseJsonEnvVar, "/nonexistent-dcmesh-dir/sub/verbose.jsonl");
  env_set(kVerboseEnvVar, "2");
  std::vector<float> a(4, 1.0f), b(4, 1.0f), c(4, 0.0f);
  EXPECT_NO_THROW(sgemm(transpose::none, transpose::none, 2, 2, 2, 1.0f,
                        a.data(), 2, b.data(), 2, 0.0f, c.data(), 2));
  EXPECT_EQ(recent_calls().size(), 1u);
  env_unset(kVerboseJsonEnvVar);
}

TEST_F(VerboseTest, JsonSinkWritesOneObjectPerCall) {
  const std::string path = per_process_path("dcmesh_verbose_sink_test");
  std::remove(path.c_str());
  env_set(kVerboseJsonEnvVar, path);

  std::vector<float> a(6, 1.0f), b(8, 1.0f), c(12, 0.0f);
  sgemm(transpose::none, transpose::none, 3, 4, 2, 1.0f, a.data(), 3,
        b.data(), 2, 0.0f, c.data(), 3);
  std::vector<double> da(1, 1.0), db(1, 1.0), dc(1, 0.0);
  dgemm(transpose::none, transpose::none, 1, 1, 1, 1.0, da.data(), 1,
        db.data(), 1, 0.0, dc.data(), 1);
  env_unset(kVerboseJsonEnvVar);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"routine\":\"SGEMM\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"m\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"mode\":\"STANDARD\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"site\":\"\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"fallback\":\"none\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"routine\":\"DGEMM\""), std::string::npos);
  // Every line is one well-formed JSON object (quick structural check).
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  std::remove(path.c_str());
}

TEST_F(VerboseTest, JsonEscapesSpecialCharacters) {
  call_record record;
  record.routine = "SG\"EMM\\";
  const std::string json = record.to_json();
  EXPECT_NE(json.find("\"routine\":\"SG\\\"EMM\\\\\""), std::string::npos)
      << json;
}

TEST_F(VerboseTest, GemmHelpers) {
  EXPECT_DOUBLE_EQ(gemm_flops(false, 10, 20, 30), 2.0 * 10 * 20 * 30);
  EXPECT_DOUBLE_EQ(gemm_flops(true, 10, 20, 30), 8.0 * 10 * 20 * 30);
  // bytes: A(m*k) + B(k*n) + 2*C(m*n), each elem_bytes.
  EXPECT_DOUBLE_EQ(gemm_bytes(2, 3, 4, 8),
                   (2.0 * 4 + 4.0 * 3 + 2.0 * 2 * 3) * 8);
}

/// Events of `category` in the trace buffers.
std::vector<trace::trace_event> events_of(std::string_view category) {
  std::vector<trace::trace_event> out;
  for (auto& event : trace::tracer::instance().snapshot()) {
    if (event.category == category) out.push_back(std::move(event));
  }
  return out;
}

TEST_F(VerboseTest, EverySinkAgreesOnOneCall) {
  // One tagged SGEMM with an injected output bitflip that ABFT corrects,
  // the health scan on, and every sink on: text line, JSON line, span,
  // metrics row and log entry all render the one record.
  const std::string path = per_process_path("dcmesh_verbose_agree_test");
  std::remove(path.c_str());
  env_set(kVerboseEnvVar, "1");
  env_set(kVerboseJsonEnvVar, path);
  resil::fault_plan plan;
  plan.rules.push_back({"verbose/agree", 0, resil::fault_kind::bitflip, 20.0});
  resil::set_fault_plan(plan);
  resil::reset_fault_state();
  resil::set_health_level(resil::health_level::full);
  trace::clear_gemm_metrics();
  auto& tracer = trace::tracer::instance();
  tracer.set_enabled(true);
  tracer.clear();

  xoshiro256 rng(42);
  const blas_int m = 16, n = 12, k = 32;
  std::vector<float> a(m * k), b(k * n), c(m * n, 0.0f);
  for (auto& v : a) v = float(rng.uniform()) - 0.5f;
  for (auto& v : b) v = float(rng.uniform()) - 0.5f;
  gemm_call<float> call;
  call.m = m;
  call.n = n;
  call.k = k;
  call.a = a.data();
  call.lda = m;
  call.b = b.data();
  call.ldb = k;
  call.c = c.data();
  call.ldc = m;
  call.call_site = "verbose/agree";
  call.abft = resil::abft_mode::correct;
  testing::internal::CaptureStderr();
  run(call);
  const std::string err = testing::internal::GetCapturedStderr();
  const auto spans = events_of("gemm");
  tracer.set_enabled(false);
  tracer.clear();
  env_unset(kVerboseJsonEnvVar);
  resil::set_fault_plan(std::nullopt);
  resil::reset_fault_state();
  resil::set_health_level(std::nullopt);

  const call_record record = recent_calls().back();
  EXPECT_EQ(record.call_site, "verbose/agree");
  EXPECT_EQ(record.routine, "SGEMM");
  EXPECT_EQ(record.fault.rfind("bitflip@", 0), 0u) << record.fault;
  EXPECT_EQ(record.abft, abft_verdict::corrected);
  EXPECT_EQ(record.health, health_verdict::clean);

  // Text line: the record's MKL_VERBOSE rendering, verdicts included.
  std::string text;
  for (std::size_t at = 0, end; at < err.size(); at = end + 1) {
    end = err.find('\n', at);
    if (err.compare(at, 12, "MKL_VERBOSE ") == 0) {
      text = err.substr(at, end - at);
    }
  }
  EXPECT_EQ(text, record.to_string()) << err;
  EXPECT_NE(text.find("SGEMM(N,N,16,12,32)"), std::string::npos) << text;
  EXPECT_NE(text.find(" site:verbose/agree"), std::string::npos) << text;
  EXPECT_NE(text.find(" fault:" + record.fault), std::string::npos) << text;
  EXPECT_NE(text.find(" abft:corrected"), std::string::npos) << text;

  // JSON line: the record's JSON rendering.
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], record.to_json());

  // Span: named by the site, ts/dur from the record, args = JSON members.
  ASSERT_EQ(spans.size(), 1u);
  const trace::trace_event& span = spans[0];
  EXPECT_EQ(span.name, "verbose/agree");
  EXPECT_EQ(span.ts_ns, tracer.ns_at(record.start));
  EXPECT_EQ(span.dur_ns,
            static_cast<std::uint64_t>(std::llround(record.seconds * 1e9)));
  for (const char* field :
       {"routine", "site", "mode", "fault", "abft", "health"}) {
    EXPECT_EQ(trace::json_string_field(span.args_json, field),
              trace::json_string_field(lines[0], field))
        << field;
  }
  for (const char* field : {"m", "n", "k", "flops", "seconds"}) {
    EXPECT_EQ(trace::json_number_field(span.args_json, field),
              trace::json_number_field(lines[0], field))
        << field;
  }
  EXPECT_EQ(span.args_json.rfind(lines[0].substr(1, lines[0].size() - 2), 0),
            0u)
      << span.args_json;

  // Metrics row: the record's site, flops, seconds and mode.
  const trace::gemm_site_counters row = trace::gemm_metrics_for(
      "verbose/agree");
  EXPECT_EQ(row.calls, 1u);
  EXPECT_EQ(row.flops, record.flops);
  EXPECT_EQ(row.flops, gemm_flops(false, m, n, k));
  EXPECT_EQ(row.seconds, record.seconds);
  EXPECT_EQ(row.mode_calls.count(std::string(info(record.mode).env_token)),
            1u);
  trace::clear_gemm_metrics();
}

TEST_F(VerboseTest, NonGemmCallsEmitOneBlasSpan) {
  auto& tracer = trace::tracer::instance();
  tracer.set_enabled(true);
  tracer.clear();
  std::vector<float> a{2.0f, 0.0f, 1.0f, 4.0f}, b{2.0f, 4.0f};
  trsm<float>(side::left, uplo::lower, transpose::none, diag::non_unit, 2, 1,
              1.0f, a.data(), 2, b.data(), 2, "verbose/trsm");
  const auto spans = events_of("blas");
  const auto gemm_spans = events_of("gemm");
  tracer.set_enabled(false);
  tracer.clear();

  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(gemm_spans.empty());
  EXPECT_EQ(spans[0].name, "verbose/trsm");
  EXPECT_EQ(trace::json_string_field(spans[0].args_json, "routine"), "STRSM");
  EXPECT_EQ(spans[0].args_json.find("predicted_us"), std::string::npos);
  EXPECT_EQ(spans[0].dur_ns, static_cast<std::uint64_t>(std::llround(
                                 recent_calls().back().seconds * 1e9)));
}

}  // namespace
}  // namespace dcmesh::blas
