// Tests for the knob table (knobs.hpp): every environment variable the
// engine reads has one row, one cache lifetime and one malformed-value
// warning.  The module readers are driven through their own APIs where
// they have one, so a passing case proves the module sees the default.

#include "dcmesh/common/knobs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/precision_policy.hpp"
#include "dcmesh/blas/verbose.hpp"
#include "dcmesh/common/env.hpp"
#include "dcmesh/farm/runner.hpp"
#include "dcmesh/resil/abft.hpp"
#include "dcmesh/resil/fault_plan.hpp"
#include "dcmesh/resil/health.hpp"
#include "dcmesh/sched/config.hpp"
#include "dcmesh/trace/signal_flush.hpp"
#include "dcmesh/trace/tracer.hpp"
#include "dcmesh/tune/autotuner.hpp"
#include "kernel_isa.hpp"

namespace dcmesh {
namespace {

/// Every knob unset and every in-process override cleared for the test;
/// the launch environment is restored afterwards.
class KnobTable : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const knob_row& r : knob_table()) {
      saved_.push_back(env_get(r.name));
      env_unset(r.name);
    }
    blas::clear_compute_mode();
    blas::clear_policy();
    blas::detail::set_kernel_isa(std::nullopt);
    blas::detail::set_bf16_native(std::nullopt);
    resil::set_health_level(std::nullopt);
    resil::set_abft_mode(std::nullopt);
    resil::set_fault_plan(std::nullopt);
    trace::tracer::instance().set_enabled(false);
    sched::reset_for_testing();
  }

  void TearDown() override {
    for (std::size_t i = 0; i < kKnobCount; ++i) {
      const std::string_view name = knob_table()[i].name;
      if (saved_[i]) {
        env_set(name, *saved_[i]);
      } else {
        env_unset(name);
      }
    }
    resil::reset_fault_state();
    sched::reset_for_testing();
  }

 private:
  std::vector<std::optional<std::string>> saved_;
};

/// "set" or "default" for a knob read through the module's own parser.
template <typename T>
std::string typed(knob k, std::optional<T> (*parse)(std::string_view)) {
  return knob_value(k, parse).has_value() ? "set" : "default";
}

std::optional<std::size_t> site_mode_token(std::string_view text) {
  return parse_token(row(knob::intercept_site_mode).grammar, text);
}

std::string threads() {
  sched::reset_for_testing();
  return std::to_string(sched::thread_count());
}

struct knob_case {
  knob k;
  std::string bad;  ///< Malformed under the knob's grammar.
  std::function<std::string()> read;
};

std::vector<knob_case> all_cases() {
  using namespace blas;
  using namespace resil;
  return {
      {knob::compute_mode, "NOT_A_MODE",
       [] { return std::string(name(active_compute_mode())); }},
      {knob::verbose, "4x", [] { return std::to_string(verbose_enabled()); }},
      {knob::verbose_json, "bad\tpath",
       [] { return typed(knob::verbose_json, parse_path); }},
      {knob::blas_policy, "no-equals-sign",
       [] { return std::to_string(active_policy().rules.size()); }},
      {knob::guard_threshold, "-1",
       [] {
         set_policy(parse_policy("knobs/*=FLOAT_TO_BF16:guarded"));
         const double tol = resolve_compute_mode("knobs/x", {}).tolerance;
         clear_policy();
         return std::to_string(tol);
       }},
      {knob::kernel_isa, "sse9",
       [] {
         return std::string(
             blas::detail::kernel_isa_name(blas::detail::active_kernel_isa()));
       }},
      {knob::bf16_native, "maybe",
       [] {
         return typed(knob::bf16_native, blas::detail::parse_bf16_native);
       }},
      {knob::mkl_num_threads, "4x", threads},
      {knob::omp_num_threads, "2threads", threads},
      {knob::sched, "pool:0",
       [] {
         sched::reset_for_testing();
         return sched::describe_active();
       }},
      {knob::health, "loud",
       [] { return std::string(name(active_health_level())); }},
      {knob::health_sample, "0",
       [] { return std::to_string(health_sample_period()); }},
      {knob::health_norm_drift, "-0.5",
       [] { return std::to_string(active_limits().norm_drift_max); }},
      {knob::health_value_max, "big",
       [] { return std::to_string(active_limits().value_max); }},
      {knob::health_ekin_jump, "nan",
       [] { return std::to_string(active_limits().ekin_jump_rel); }},
      {knob::abft, "fix",
       [] { return std::string(name(active_abft_mode())); }},
      {knob::fault_plan, "not a plan",
       [] {
         reset_fault_state();
         return std::string(next_fault("knobs/plan") ? "armed" : "none");
       }},
      {knob::fault_seed, "0x10",
       [] {
         set_fault_plan(parse_fault_plan("knobs/seed:0:nan"));
         const auto hit = next_fault("knobs/seed");
         set_fault_plan(std::nullopt);
         return std::to_string(hit->draw_seed);
       }},
      {knob::tune_cache, "bad\npath",
       [] { return typed(knob::tune_cache, parse_path); }},
      {knob::tune_ulp_budget, "inf",
       [] { return typed(knob::tune_ulp_budget, tune::parse_ulp_budget); }},
      {knob::trace_json, "bad\x01path",
       [] { return std::to_string(trace::tracer::instance().enabled()); }},
      {knob::trace_flush_on_signal, "2",
       [] { return typed(knob::trace_flush_on_signal, parse_switch); }},
      {knob::intercept_site_mode, "bogus-mode",
       [] { return typed(knob::intercept_site_mode, site_mode_token); }},
      {knob::intercept_autotune, "banana",
       [] { return typed(knob::intercept_autotune, parse_switch); }},
      {knob::intercept_chain, "banana2",
       [] { return typed(knob::intercept_chain, parse_switch); }},
      {knob::farm_kill, "run-*:soon",
       [] { return typed(knob::farm_kill, farm::parse_kill_plan); }},
  };
}

std::size_t count(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

class MalformedKnob : public KnobTable,
                      public ::testing::WithParamInterface<knob_case> {};

TEST_P(MalformedKnob, ReadsAsTheDefaultAndWarnsOncePerValue) {
  const knob_case& c = GetParam();
  const knob_row& r = row(c.k);
  const std::string name(r.name);
  const std::string fallback = c.read();

  env_set(name, c.bad);
  testing::internal::CaptureStderr();
  EXPECT_EQ(c.read(), fallback);
  EXPECT_EQ(c.read(), fallback);  // cached: no re-parse
  env_set(name, c.bad);           // re-parsed: same value, no new warning
  EXPECT_EQ(c.read(), fallback);
  const std::string err = testing::internal::GetCapturedStderr();

  EXPECT_EQ(count(err, "dcmesh: malformed " + name + "="), 1u) << err;
  const std::string warning = "dcmesh: malformed " + name + "=\"" + c.bad +
                              "\" (expected " + std::string(r.grammar) +
                              "); using " + std::string(r.fallback) + "\n";
  EXPECT_NE(err.find(warning), std::string::npos) << err;
  EXPECT_FALSE(blas::render_knob(c.k, c.bad).has_value() &&
               c.k != knob::farm_kill);
}

TEST(KnobCases, CoverEveryKnobOnce) {
  std::set<knob> seen;
  for (const knob_case& c : all_cases()) EXPECT_TRUE(seen.insert(c.k).second);
  EXPECT_EQ(seen.size(), kKnobCount);
}

INSTANTIATE_TEST_SUITE_P(
    AllKnobs, MalformedKnob, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<knob_case>& info) {
      return std::string(row(info.param.k).name);
    });

TEST_F(KnobTable, EnvSetReachesACachedKnobAndEnvUnsetRestoresTheDefault) {
  env_set("DCMESH_HEALTH", "full");
  EXPECT_EQ(resil::active_health_level(), resil::health_level::full);
  env_set("DCMESH_HEALTH", "sample");
  EXPECT_EQ(resil::active_health_level(), resil::health_level::sample);
  env_unset("DCMESH_HEALTH");
  EXPECT_EQ(resil::active_health_level(), resil::health_level::off);
}

TEST_F(KnobTable, ACachedReadKeepsItsEntryUntilTheKnobChanges) {
  env_set("DCMESH_INTERCEPT_CHAIN", "on");
  const auto* first = &knob_value(knob::intercept_chain, parse_switch);
  EXPECT_EQ(first, &knob_value(knob::intercept_chain, parse_switch));
  // A raw setenv bypasses the table: the cached value stands until the
  // knob is reported changed.
  ::setenv("DCMESH_INTERCEPT_CHAIN", "off", 1);
  EXPECT_EQ(knob_value(knob::intercept_chain, parse_switch), true);
  knob_changed("DCMESH_INTERCEPT_CHAIN");
  EXPECT_EQ(knob_value(knob::intercept_chain, parse_switch), false);
}

TEST_F(KnobTable, ConcurrentReadersSeeEveryEnvSetWithoutTearing) {
  // Readers race the cache drop and re-parse of env_set; every read must
  // be a whole value, and the last write must win once writes stop.
  env_set("DCMESH_INTERCEPT_CHAIN", "on");
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        if (!knob_value(knob::intercept_chain, parse_switch)) ++torn;
      }
    });
  }
  for (int i = 0; i < 400; ++i) {
    env_set("DCMESH_INTERCEPT_CHAIN", i % 2 == 0 ? "off" : "on");
  }
  stop = true;
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(knob_value(knob::intercept_chain, parse_switch), true);
}

TEST_F(KnobTable, SetNulloptHandsControlBackToTheEnvironment) {
  env_set("DCMESH_ABFT", "detect");
  (void)resil::active_abft_mode();  // cache the env value first
  resil::set_abft_mode(resil::abft_mode::correct);
  EXPECT_EQ(resil::active_abft_mode(), resil::abft_mode::correct);
  resil::set_abft_mode(std::nullopt);
  EXPECT_EQ(resil::active_abft_mode(), resil::abft_mode::detect);

  env_set("DCMESH_HEALTH", "sample");
  resil::set_health_level(resil::health_level::full);
  EXPECT_EQ(resil::active_health_level(), resil::health_level::full);
  resil::set_health_level(std::nullopt);
  EXPECT_EQ(resil::active_health_level(), resil::health_level::sample);

  env_set("DCMESH_KERNEL_ISA", "scalar");
  (void)blas::detail::active_kernel_isa();
  blas::detail::set_kernel_isa(blas::detail::kernel_isa::avx2);
  blas::detail::set_kernel_isa(std::nullopt);
  EXPECT_EQ(blas::detail::active_kernel_isa(),
            blas::detail::kernel_isa::scalar);
}

TEST_F(KnobTable, SignalFlushSwitchAcceptsEverySwitchSpelling) {
  // The old atol() reading took "yes" and "on" for off.
  for (const char* on : {"1", "on", "yes", "TRUE"}) {
    env_set("DCMESH_TRACE_FLUSH_ON_SIGNAL", on);
    EXPECT_EQ(knob_value(knob::trace_flush_on_signal, parse_switch), true)
        << on;
  }
  for (const char* off : {"0", "off", "no", "False"}) {
    env_set("DCMESH_TRACE_FLUSH_ON_SIGNAL", off);
    EXPECT_EQ(knob_value(knob::trace_flush_on_signal, parse_switch), false)
        << off;
  }
}

TEST_F(KnobTable, TokenGrammarsAreTheModuleGrammars) {
  const auto tokens = [](knob k) {
    std::vector<std::string> out;
    const std::string_view g = row(k).grammar;
    for (std::size_t start = 0; start <= g.size();) {
      const std::size_t bar = std::min(g.find('|', start), g.size());
      out.emplace_back(g.substr(start, bar - start));
      start = bar + 1;
    }
    return out;
  };
  for (const std::string& t : tokens(knob::compute_mode)) {
    EXPECT_TRUE(blas::parse_compute_mode(t).has_value()) << t;
  }
  EXPECT_EQ(tokens(knob::compute_mode).size(),
            static_cast<std::size_t>(blas::kNumComputeModes));
  for (const std::string& t : tokens(knob::abft)) {
    EXPECT_TRUE(resil::parse_abft_mode(t).has_value()) << t;
  }
  testing::internal::CaptureStderr();
  for (const knob k : {knob::health, knob::kernel_isa, knob::bf16_native}) {
    for (const std::string& t : tokens(k)) {
      env_set(row(k).name, t);
      (void)resil::active_health_level();
      (void)blas::detail::active_kernel_isa();
      (void)knob_value(knob::bf16_native, blas::detail::parse_bf16_native);
    }
  }
  EXPECT_EQ(count(testing::internal::GetCapturedStderr(), "malformed"), 0u);
}

TEST_F(KnobTable, ConfigLineRendersEverySetKnobInTableOrder) {
  env_set("DCMESH_HEALTH", " FULL ");
  env_set("DCMESH_SCHED", "pool:0");
  env_set("MKL_VERBOSE", "1");
  env_set("MKL_BLAS_COMPUTE_MODE", "float_to_bf16x2");
  EXPECT_EQ(blas::config_line(),
            "DCMESH_CONFIG MKL_BLAS_COMPUTE_MODE=FLOAT_TO_BF16X2 MKL_VERBOSE=1 "
            "DCMESH_SCHED=malformed->serial DCMESH_HEALTH=full");
}

TEST_F(KnobTable, VerboseRunPrintsTheConfigLineOnceBeforeTheFirstRecord) {
  env_set("MKL_VERBOSE", "1");
  float a = 1.0f, b = 2.0f, c = 0.0f;
  testing::internal::CaptureStderr();
  blas::sgemm(blas::transpose::none, blas::transpose::none, 1, 1, 1, 1.0f, &a,
              1, &b, 1, 0.0f, &c, 1);
  blas::sgemm(blas::transpose::none, blas::transpose::none, 1, 1, 1, 1.0f, &a,
              1, &b, 1, 0.0f, &c, 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.rfind("DCMESH_CONFIG MKL_VERBOSE=1\n", 0), 0u) << err;
  EXPECT_EQ(count(err, "DCMESH_CONFIG"), 1u) << err;
  EXPECT_EQ(count(err, "SGEMM"), 2u) << err;
}

/// Run the process's first GEMM and exit 0 when its stderr leads with the
/// one config line and carries a DCMESH_RESIL line.
[[noreturn]] void first_gemm_and_exit() {
  float a = 1.0f, b = 2.0f, c = 0.0f;
  testing::internal::CaptureStderr();
  blas::sgemm(blas::transpose::none, blas::transpose::none, 1, 1, 1, 1.0f, &a,
              1, &b, 1, 0.0f, &c, 1);
  const std::string err = testing::internal::GetCapturedStderr();
  std::fputs(err.c_str(), stderr);
  std::exit(err.rfind("DCMESH_CONFIG ", 0) == 0 &&
                    count(err, "DCMESH_CONFIG") == 1 &&
                    err.find("\nDCMESH_RESIL inject") != std::string::npos
                ? 0
                : 1);
}

TEST_F(KnobTable, AHealthEventFirstStillPrintsTheConfigLineFirst) {
  // A fault in the process's first GEMM prints DCMESH_RESIL lines ahead of
  // its record; the config line still leads.  It prints once per process,
  // so the check runs in a fresh one.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  env_set("MKL_VERBOSE", "1");
  env_set("DCMESH_HEALTH", "full");
  env_set("DCMESH_FAULT_PLAN", "*:0:nan");
  EXPECT_EXIT(first_gemm_and_exit(), testing::ExitedWithCode(0),
              "DCMESH_CONFIG");
}

TEST(KnobTableRows, NamesAreUniqueAndFindKnobRoundTrips) {
  for (std::size_t i = 0; i < kKnobCount; ++i) {
    const knob k = static_cast<knob>(i);
    EXPECT_EQ(find_knob(row(k).name), k) << row(k).name;
    EXPECT_FALSE(row(k).grammar.empty());
    EXPECT_FALSE(row(k).fallback.empty());
    EXPECT_FALSE(row(k).doc.empty());
  }
  EXPECT_EQ(find_knob("DCMESH_HEALHT"), std::nullopt);
  EXPECT_EQ(find_knob("dcmesh_health"), std::nullopt);
}

TEST(KnobTableRows, ReadmeEnvironmentTableNamesExactlyTheKnobs) {
  std::ifstream readme(DCMESH_README_PATH);
  ASSERT_TRUE(readme) << DCMESH_README_PATH;
  std::vector<std::string> names;
  bool in_section = false;
  for (std::string line; std::getline(readme, line);) {
    if (line.rfind("## ", 0) == 0) in_section = line == "## Environment";
    if (in_section && line.rfind("| `", 0) == 0) {
      names.push_back(line.substr(3, line.find('`', 3) - 3));
    }
  }
  std::vector<std::string> table;
  for (const knob_row& r : knob_table()) table.emplace_back(r.name);
  EXPECT_EQ(names, table);
}

}  // namespace
}  // namespace dcmesh
