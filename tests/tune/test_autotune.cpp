// Tests for the accuracy-aware autotuning subsystem: the wisdom file
// format (round-trip, stale/corrupt rejection, first-writer-wins dedup),
// the autotuner's calibrate-then-model and cache decision paths (and that
// a decision depends on neither host time nor the trace hook), multi-process
// determinism through a shared wisdom file, env-var robustness, and the
// end-to-end `auto` policy mode — including the headline guarantee that a
// warm wisdom cache performs ZERO calibration GEMMs (asserted via the
// metrics registry).

#include "dcmesh/tune/autotuner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "dcmesh/blas/gemm_call.hpp"
#include "dcmesh/blas/precision_policy.hpp"
#include "dcmesh/common/env.hpp"
#include "dcmesh/core/driver.hpp"
#include "dcmesh/core/presets.hpp"
#include "dcmesh/trace/metrics.hpp"
#include "dcmesh/trace/tracer.hpp"
#include "dcmesh/tune/wisdom.hpp"
#include "dcmesh/xehpc/roofline.hpp"

namespace dcmesh::tune {
namespace {

class AutotuneTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    blas::set_auto_tune_hook({});
    blas::clear_policy();
    blas::clear_compute_mode();
    trace::clear_gemm_metrics();
    env_unset(kTuneCacheEnvVar);
    env_unset(kUlpBudgetEnvVar);
    env_unset(blas::kPolicyEnvVar);
    default_tuner().clear();
  }

  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + name;
  }

  static blas::auto_tune_request sgemm_request(std::string_view site,
                                               blas::blas_int m,
                                               blas::blas_int n,
                                               blas::blas_int k) {
    return {site, "SGEMM", m, n, k, /*is_complex=*/false,
            /*is_fp64=*/false, /*ulp_budget=*/0.0};
  }

  static blas::auto_tune_request cgemm_request(std::string_view site,
                                               blas::blas_int m,
                                               blas::blas_int n,
                                               blas::blas_int k) {
    return {site, "CGEMM", m, n, k, /*is_complex=*/true,
            /*is_fp64=*/false, /*ulp_budget=*/0.0};
  }

  /// The roofline time the tuner ranks `mode` by for `request`.
  static double model_seconds(const blas::auto_tune_request& request,
                              blas::compute_mode mode) {
    xehpc::gemm_shape shape;
    shape.m = request.m;
    shape.n = request.n;
    shape.k = request.k;
    shape.is_complex = request.is_complex;
    shape.precision = request.is_fp64 ? xehpc::gemm_precision::fp64
                                      : xehpc::gemm_precision::fp32;
    return xehpc::model_gemm({}, {}, shape, mode).total_s();
  }
};

// ------------------------------------------------------------- wisdom ---

TEST_F(AutotuneTest, ShapeClassBucketsByBitWidth) {
  EXPECT_EQ(classify_shape(100, 3, 1000).to_string(), "m7n2k10");
  EXPECT_EQ(classify_shape(1, 1, 1).to_string(), "m1n1k1");
  // Same bucket for nearby shapes, different bucket across a power of two.
  EXPECT_EQ(classify_shape(65, 65, 100), classify_shape(100, 100, 127));
  EXPECT_FALSE(classify_shape(63, 64, 64) == classify_shape(64, 64, 64));
  // Degenerate dims clamp to the smallest bucket instead of misbehaving.
  EXPECT_EQ(classify_shape(0, -5, 1), classify_shape(1, 1, 1));
}

TEST_F(AutotuneTest, WisdomLineRoundTrips) {
  wisdom_entry entry;
  entry.routine = "CGEMM";
  entry.site = "lfd/nlp_prop/\"quoted\"";  // escaping must survive
  entry.cls = classify_shape(48, 48, 512);
  entry.ulp_budget = 1024.0;
  entry.mode_token = "COMPLEX_3M";
  entry.err_ulp = 16.6875;

  const auto parsed = parse_wisdom_line(entry.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->routine, entry.routine);
  EXPECT_EQ(parsed->site, entry.site);
  EXPECT_EQ(parsed->cls, entry.cls);
  EXPECT_DOUBLE_EQ(parsed->ulp_budget, entry.ulp_budget);
  EXPECT_EQ(parsed->mode_token, entry.mode_token);
  EXPECT_DOUBLE_EQ(parsed->err_ulp, entry.err_ulp);
  EXPECT_EQ(parsed->key(), entry.key());
}

TEST_F(AutotuneTest, HeaderValidatesFormatAndKernelVersion) {
  EXPECT_TRUE(wisdom_header_ok(wisdom_header()));
  EXPECT_FALSE(wisdom_header_ok(
      "{\"dcmesh_wisdom\":999,\"kernel\":\"minimkl-blocked-v2\"}"));
  EXPECT_FALSE(wisdom_header_ok(
      "{\"dcmesh_wisdom\":1,\"kernel\":\"some-older-kernel\"}"));
  // A store written when modes were ranked by host time is rebuilt.
  EXPECT_FALSE(wisdom_header_ok(
      "{\"dcmesh_wisdom\":2,\"kernel\":\"minimkl-blocked-v2\"}"));
  EXPECT_FALSE(wisdom_header_ok("not json at all"));
  EXPECT_FALSE(parse_wisdom_line("{\"routine\":\"SGEMM\"}").has_value());
}

TEST_F(AutotuneTest, LoadSkipsMalformedLinesAndDedupsFirstWins) {
  const std::string path = temp_path("wisdom_malformed.jsonl");
  wisdom_entry entry;
  entry.routine = "SGEMM";
  entry.site = "a";
  entry.cls = classify_shape(64, 64, 64);
  entry.ulp_budget = 1024.0;
  entry.mode_token = "STANDARD";
  wisdom_entry dup = entry;  // same key, different mode: must lose
  dup.mode_token = "FLOAT_TO_BF16";
  {
    std::ofstream os(path, std::ios::trunc);
    os << wisdom_header() << '\n'
       << entry.to_json() << '\n'
       << "torn wri" << '\n'
       << dup.to_json() << '\n';
  }
  const auto file = load_wisdom(path);
  EXPECT_TRUE(file.existed);
  EXPECT_TRUE(file.version_ok);
  EXPECT_EQ(file.rejected_lines, 1u);
  ASSERT_EQ(file.entries.size(), 1u);
  EXPECT_EQ(file.entries[0].mode_token, "STANDARD");
  std::remove(path.c_str());
}

TEST_F(AutotuneTest, StaleKernelVersionRejectsWholeFile) {
  const std::string path = temp_path("wisdom_stale.jsonl");
  {
    std::ofstream os(path, std::ios::trunc);
    os << "{\"dcmesh_wisdom\":1,\"kernel\":\"minimkl-blocked-v1\"}\n";
    os << "{\"routine\":\"SGEMM\",\"site\":\"a\",\"class\":\"m7n7k7\","
          "\"ulp_budget\":1024,\"mode\":\"STANDARD\",\"err_ulp\":1,"
          "\"gflops\":1,\"provenance\":\"calibrated\"}\n";
  }
  const auto file = load_wisdom(path);
  EXPECT_TRUE(file.existed);
  EXPECT_FALSE(file.version_ok);
  EXPECT_TRUE(file.entries.empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------- autotuner ---

TEST_F(AutotuneTest, ColdShapeCalibratesWithinBudget) {
  autotuner tuner{std::string{}};  // in-memory only
  const auto choice = tuner.resolve(sgemm_request("t/a", 128, 128, 128));
  EXPECT_EQ(choice.provenance, blas::auto_provenance::modeled);
  EXPECT_LE(choice.err_ulp, kDefaultUlpBudget);

  const auto decisions = tuner.decisions();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(tuner.stats().calibrations, 1u);

  // The calibration GEMMs ran through the public dispatcher and are
  // visible in the metrics registry under the calibration site tag.
  EXPECT_GT(trace::gemm_metrics_for(kCalibrationSite).calls, 0u);
}

TEST_F(AutotuneTest, SecondResolveHitsMemoryWithZeroCalibrationGemms) {
  autotuner tuner{std::string{}};
  (void)tuner.resolve(sgemm_request("t/a", 128, 128, 128));

  trace::clear_gemm_metrics();
  const auto warm = tuner.resolve(sgemm_request("t/a", 128, 128, 128));
  EXPECT_EQ(warm.provenance, blas::auto_provenance::cached);
  EXPECT_EQ(trace::gemm_metrics_for(kCalibrationSite).calls, 0u);
  EXPECT_EQ(tuner.stats().cache_hits, 1u);
  EXPECT_EQ(tuner.stats().calibrations, 1u);
}

TEST_F(AutotuneTest, ChosenModeIsCheapestByTheModelWithinBudget) {
  autotuner tuner{std::string{}};
  const blas::auto_tune_request requests[] = {
      sgemm_request("t/cheap", 96, 96, 256),
      cgemm_request("t/cheap", 32, 32, 4096),
  };
  for (const auto& request : requests) (void)tuner.resolve(request);
  const auto log = tuner.calibration_log();
  ASSERT_EQ(log.size(), 2u);
  for (std::size_t r = 0; r < log.size(); ++r) {
    const auto chosen = blas::parse_compute_mode(log[r].decision.mode_token);
    ASSERT_TRUE(chosen.has_value());
    const double chosen_s = model_seconds(requests[r], *chosen);
    bool seen_chosen = false;
    for (const auto& meas : log[r].measurements) {
      // BF16x3 carries enough components to emulate FP32.
      if (meas.mode == blas::compute_mode::float_to_bf16x3) {
        EXPECT_TRUE(meas.within_budget) << meas.err_ulp;
      }
      if (meas.mode == *chosen) {
        EXPECT_TRUE(meas.within_budget);
        seen_chosen = true;
        continue;
      }
      if (!meas.within_budget) continue;
      // No admissible mode is cheaper on the modeled device, and a mode
      // that ties only wins when it comes first in the eligible order.
      const double other_s = model_seconds(requests[r], meas.mode);
      if (seen_chosen) {
        EXPECT_LE(chosen_s, other_s) << "beaten by " << info(meas.mode).name;
      } else {
        EXPECT_LT(chosen_s, other_s) << "beaten by " << info(meas.mode).name;
      }
    }
    EXPECT_TRUE(seen_chosen);
  }
  // The Table VII CGEMM shape: the roofline prices COMPLEX_3M lowest.
  EXPECT_EQ(log[1].decision.mode_token, "COMPLEX_3M");
}

TEST_F(AutotuneTest, TinyShapeRanksByTheModelLikeAnyOther) {
  autotuner tuner{std::string{}};
  const auto choice = tuner.resolve(sgemm_request("t/tiny", 8, 8, 8));
  EXPECT_EQ(choice.provenance, blas::auto_provenance::modeled);
  EXPECT_LE(choice.err_ulp, kDefaultUlpBudget);
  EXPECT_EQ(tuner.stats().calibrations, 1u);
  EXPECT_EQ(tuner.decisions().size(), 1u);
}

// The decision is the tuner's own roofline ranking: whatever cost model
// the trace layer has installed (the roofline under core::driver, none
// under the shim or a bare library user, anything in a test) must not
// change it.
TEST_F(AutotuneTest, DecisionIgnoresTheTraceTimeModel) {
  const auto request = cgemm_request("t/hook", 8, 8, 8);
  const auto resolve_once = [&] {
    autotuner tuner{std::string{}};
    return tuner.resolve(request).mode;
  };
  trace::set_gemm_time_model({});
  const blas::compute_mode bare = resolve_once();
  xehpc::install_trace_gemm_model();
  EXPECT_EQ(resolve_once(), bare);
  // A model that prices STANDARD cheapest of all.
  trace::set_gemm_time_model([](const trace::gemm_model_query& q) {
    return q.mode_token == "STANDARD" ? 1e-9 : 1.0;
  });
  EXPECT_EQ(resolve_once(), bare);
  trace::set_gemm_time_model({});
  EXPECT_EQ(resolve_once(), bare);
}

TEST_F(AutotuneTest, PlainFp64DefaultsToStandardWithoutCalibration) {
  autotuner tuner{std::string{}};
  const blas::auto_tune_request request{
      "t/d", "DGEMM", 128, 128, 128, false, true, 0.0};
  const auto choice = tuner.resolve(request);
  EXPECT_EQ(choice.mode, blas::compute_mode::standard);
  EXPECT_EQ(choice.provenance, blas::auto_provenance::defaulted);
  EXPECT_TRUE(tuner.decisions().empty());
  EXPECT_EQ(trace::gemm_metrics_for(kCalibrationSite).calls, 0u);
}

TEST_F(AutotuneTest, RequestBudgetOverridesDefaultAndKeysTheDecision) {
  autotuner tuner{std::string{}};
  blas::auto_tune_request request = sgemm_request("t/b", 64, 64, 64);
  request.ulp_budget = 123456.0;
  (void)tuner.resolve(request);
  const auto decisions = tuner.decisions();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_DOUBLE_EQ(decisions[0].ulp_budget, 123456.0);

  // A different budget is a different key: it calibrates separately.
  request.ulp_budget = 0.0;
  (void)tuner.resolve(request);
  EXPECT_EQ(tuner.decisions().size(), 2u);
}

// A decision is a mode and nothing else: a cold key costs one
// calibration GEMM per eligible mode at any shape, 16 Mflop included.
TEST_F(AutotuneTest, ColdKeyRunsOneCalibrationGemmPerEligibleMode) {
  autotuner tuner{std::string{}};
  (void)tuner.resolve(sgemm_request("t/big", 128, 128, 512));
  ASSERT_EQ(tuner.calibration_log().size(), 1u);
  EXPECT_EQ(tuner.calibration_log()[0].measurements.size(), 5u);
  EXPECT_EQ(trace::gemm_metrics_for(kCalibrationSite).calls, 5u);
}

// Nothing host-timed reaches the store: two cold tuners write the same
// bytes, and the line holds the mode decision's fields alone.
TEST_F(AutotuneTest, ColdTunersWriteByteIdenticalWisdom) {
  const auto cold_store = [&](const char* name) {
    const std::string path = temp_path(name);
    std::remove(path.c_str());
    autotuner tuner{path};
    (void)tuner.resolve(sgemm_request("t/big", 128, 128, 512));
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return std::make_pair(text, tuner.decisions());
  };
  const auto [first, decisions] = cold_store("wisdom_cold_a.jsonl");
  EXPECT_EQ(first, cold_store("wisdom_cold_b.jsonl").first);

  ASSERT_EQ(decisions.size(), 1u);
  wisdom_entry expected;
  expected.routine = "SGEMM";
  expected.site = "t/big";
  expected.cls = classify_shape(128, 128, 512);
  expected.ulp_budget = kDefaultUlpBudget;
  expected.mode_token = decisions[0].mode_token;
  expected.err_ulp = decisions[0].err_ulp;
  expected.generation = 1;
  EXPECT_EQ(first, wisdom_header(1) + "\n" + expected.to_json() + "\n");
}

// A format-3 line that still carries the MC/NC blocking fields earlier
// builds wrote loads and is served cached; the next rewrite drops them.
TEST_F(AutotuneTest, StoredLineWithBlockingFieldsLoadsAndServesCached) {
  const std::string path = temp_path("wisdom_blocking_line.jsonl");
  const std::string cls = classify_shape(128, 128, 512).to_string();
  {
    std::ofstream os(path, std::ios::trunc);
    os << wisdom_header(1) << '\n'
       << "{\"routine\":\"SGEMM\",\"site\":\"t/big\",\"class\":\"" << cls
       << "\",\"ulp_budget\":1024,\"mode\":\"FLOAT_TO_BF16X2\","
          "\"err_ulp\":12.5,\"block_m\":144,\"block_n\":1024,"
          "\"block_isa\":\"scalar\",\"gen\":1}\n";
  }
  autotuner tuner{path};
  const auto choice = tuner.resolve(sgemm_request("t/big", 128, 128, 512));
  EXPECT_EQ(choice.provenance, blas::auto_provenance::cached);
  EXPECT_EQ(choice.mode, blas::compute_mode::float_to_bf16x2);
  EXPECT_DOUBLE_EQ(choice.err_ulp, 12.5);
  EXPECT_EQ(tuner.stats().calibrations, 0u);
  EXPECT_EQ(trace::gemm_metrics_for(kCalibrationSite).calls, 0u);

  ASSERT_TRUE(tuner.flush());
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text.find("block_"), std::string::npos) << text;
  EXPECT_NE(text.find("FLOAT_TO_BF16X2"), std::string::npos) << text;
  std::remove(path.c_str());
}

// ------------------------------------------------- wisdom persistence ---

TEST_F(AutotuneTest, WisdomRoundTripsAcrossInstancesWithZeroRecalibration) {
  const std::string path = temp_path("wisdom_roundtrip.jsonl");
  std::remove(path.c_str());

  autotuner cold{path};
  const auto first = cold.resolve(sgemm_request("t/rt", 128, 128, 128));
  EXPECT_EQ(first.provenance, blas::auto_provenance::modeled);
  ASSERT_TRUE(cold.flush());

  // A fresh instance (fresh process, in effect) resolves the same key
  // from the file: identical mode, and NOT ONE calibration GEMM.
  trace::clear_gemm_metrics();
  autotuner warm{path};
  const auto second = warm.resolve(sgemm_request("t/rt", 128, 128, 128));
  EXPECT_EQ(second.provenance, blas::auto_provenance::cached);
  EXPECT_EQ(second.mode, first.mode);
  EXPECT_EQ(trace::gemm_metrics_for(kCalibrationSite).calls, 0u);
  EXPECT_EQ(warm.stats().calibrations, 0u);
  EXPECT_EQ(warm.stats().cache_hits, 1u);
  std::remove(path.c_str());
}

TEST_F(AutotuneTest, ClearBehavesLikeAFreshProcess) {
  const std::string path = temp_path("wisdom_clear.jsonl");
  std::remove(path.c_str());
  autotuner tuner{path};
  const auto first = tuner.resolve(sgemm_request("t/c", 128, 128, 128));
  tuner.clear();
  EXPECT_TRUE(tuner.decisions().empty());
  const auto again = tuner.resolve(sgemm_request("t/c", 128, 128, 128));
  EXPECT_EQ(again.provenance, blas::auto_provenance::cached);  // from file
  EXPECT_EQ(again.mode, first.mode);
  std::remove(path.c_str());
}

TEST_F(AutotuneTest, CorruptWisdomFileIsRejectedAndRebuilt) {
  const std::string path = temp_path("wisdom_corrupt.jsonl");
  {
    std::ofstream os(path, std::ios::trunc);
    os << "complete garbage, not even json\nmore garbage\n";
  }
  autotuner tuner{path};
  // The corrupt file must not crash, throw, or poison the decision.
  const auto choice = tuner.resolve(sgemm_request("t/x", 128, 128, 128));
  EXPECT_EQ(choice.provenance, blas::auto_provenance::modeled);

  // And the file has been rebuilt with a valid header + this decision.
  const auto reloaded = load_wisdom(path);
  EXPECT_TRUE(reloaded.version_ok);
  ASSERT_EQ(reloaded.entries.size(), 1u);
  EXPECT_EQ(reloaded.entries[0].site, "t/x");
  std::remove(path.c_str());
}

TEST_F(AutotuneTest, ProcessesSharingAWisdomFileAgree) {
  const std::string path = temp_path("wisdom_shared.jsonl");
  std::remove(path.c_str());

  // "Process" A calibrates key 1; "process" B, sharing the file, must
  // adopt A's decision for key 1, then contribute key 2; A must adopt
  // B's key-2 decision after a reload.  First writer wins throughout.
  autotuner a{path};
  autotuner b{path};
  const auto a1 = a.resolve(sgemm_request("t/s1", 128, 128, 128));
  const auto b1 = b.resolve(sgemm_request("t/s1", 128, 128, 128));
  EXPECT_EQ(b1.provenance, blas::auto_provenance::cached);
  EXPECT_EQ(b1.mode, a1.mode);

  const auto b2 = b.resolve(sgemm_request("t/s2", 64, 64, 256));
  a.clear();  // reload from the shared file on next resolve
  const auto a2 = a.resolve(sgemm_request("t/s2", 64, 64, 256));
  EXPECT_EQ(a2.provenance, blas::auto_provenance::cached);
  EXPECT_EQ(a2.mode, b2.mode);
  std::remove(path.c_str());
}

// ------------------------------------------------- env-var robustness ---

TEST_F(AutotuneTest, UnwritableCachePathWarnsAndStaysMemoryOnly) {
  autotuner tuner{"/nonexistent-dcmesh-dir/sub/wisdom.jsonl"};
  const auto choice = tuner.resolve(sgemm_request("t/u", 128, 128, 128));
  EXPECT_EQ(choice.provenance, blas::auto_provenance::modeled);
  const auto warm = tuner.resolve(sgemm_request("t/u", 128, 128, 128));
  EXPECT_EQ(warm.provenance, blas::auto_provenance::cached);
}

TEST_F(AutotuneTest, MalformedUlpBudgetEnvFallsBackToDefault) {
  env_set(kUlpBudgetEnvVar, "not-a-number");
  autotuner tuner{std::string{}};
  (void)tuner.resolve(sgemm_request("t/e", 64, 64, 64));
  const auto decisions = tuner.decisions();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_DOUBLE_EQ(decisions[0].ulp_budget, kDefaultUlpBudget);

  env_set(kUlpBudgetEnvVar, "4096");
  (void)tuner.resolve(sgemm_request("t/e2", 64, 64, 64));
  bool found = false;
  for (const auto& entry : tuner.decisions()) {
    if (entry.site == "t/e2") {
      EXPECT_DOUBLE_EQ(entry.ulp_budget, 4096.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(AutotuneTest, FollowEnvTunerTracksCachePathChanges) {
  const std::string path = temp_path("wisdom_env.jsonl");
  std::remove(path.c_str());
  autotuner tuner;  // follow-env mode
  EXPECT_EQ(tuner.cache_path(), "");

  env_set(kTuneCacheEnvVar, path);
  (void)tuner.resolve(sgemm_request("t/env", 128, 128, 128));
  EXPECT_EQ(tuner.cache_path(), path);
  EXPECT_TRUE(load_wisdom(path).version_ok);
  EXPECT_EQ(load_wisdom(path).entries.size(), 1u);

  env_unset(kTuneCacheEnvVar);
  (void)tuner.resolve(sgemm_request("t/env", 128, 128, 128));
  EXPECT_EQ(tuner.cache_path(), "");
  std::remove(path.c_str());
}

// -------------------------------------------------------- auto policy ---

TEST_F(AutotuneTest, AutoPolicyResolvesThroughInstalledTuner) {
  install_auto_tuner();
  blas::set_policy(blas::parse_policy("e2e/*=auto"));

  const blas::blas_int n = 128;
  std::vector<float> a(n * n, 0.25f), b(n * n, 0.5f), c(n * n);
  blas::gemm_call<float> call;
  call.m = call.n = call.k = n;
  call.a = a.data();
  call.lda = n;
  call.b = b.data();
  call.ldb = n;
  call.c = c.data();
  call.ldc = n;
  call.call_site = "e2e/site";
  blas::run(call);
  blas::run(call);

  const auto counters = trace::gemm_metrics_for("e2e/site");
  EXPECT_EQ(counters.calls, 2u);
  ASSERT_EQ(counters.tune_calls.count("modeled"), 1u);
  EXPECT_EQ(counters.tune_calls.at("modeled"), 1u);
  ASSERT_EQ(counters.tune_calls.count("cached"), 1u);
  EXPECT_EQ(counters.tune_calls.at("cached"), 1u);
  EXPECT_GT(trace::gemm_metrics_for(kCalibrationSite).calls, 0u);
}

// The ISSUE acceptance scenario: the real driver on the tiny preset with
// a blanket auto policy.  Cold run calibrates every tagged site within
// budget; a second run against the same wisdom file performs zero
// calibration GEMMs.
TEST_F(AutotuneTest, DriverTinyPresetAutoColdThenWarm) {
  const std::string path = temp_path("wisdom_driver.jsonl");
  std::remove(path.c_str());
  env_set(kTuneCacheEnvVar, path);

  auto config = core::preset(core::paper_system::tiny);
  config.qd_steps_per_series = 5;
  config.series = 1;
  config.blas_policy = "lfd/*=auto";

  {  // cold: every auto-resolved site calibrates within its budget
    core::driver sim(config);
    sim.run();
  }
  EXPECT_GT(trace::gemm_metrics_for(kCalibrationSite).calls, 0u);
  const auto decisions = default_tuner().decisions();
  ASSERT_FALSE(decisions.empty());
  for (const auto& entry : decisions) {
    EXPECT_LE(entry.err_ulp, entry.ulp_budget) << entry.key();
  }
  const std::size_t persisted = load_wisdom(path).entries.size();
  EXPECT_EQ(persisted, decisions.size());

  // warm: fresh tuner state (fresh process, in effect), same wisdom file
  default_tuner().clear();
  trace::clear_gemm_metrics();
  {
    core::driver sim(config);
    sim.run();
  }
  EXPECT_EQ(trace::gemm_metrics_for(kCalibrationSite).calls, 0u);
  EXPECT_EQ(default_tuner().stats().calibrations, 0u);
  EXPECT_GT(default_tuner().stats().cache_hits, 0u);
  // The warm run added no new wisdom.
  EXPECT_EQ(load_wisdom(path).entries.size(), persisted);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dcmesh::tune
