// Tests for libdcmesh_intercept.so, the LD_PRELOAD interposition shim.
//
// The shim is examined the way its consumers meet it: dlopen'd as a
// foreign shared object (never linked), its symbols resolved by name and
// by version node, and finally exercised end to end by re-running the
// intercept_demo binary under LD_PRELOAD in a subprocess.
//
// ctest passes the artifact locations through the environment:
//   DCMESH_TEST_SHIM — absolute path to libdcmesh_intercept.so
//   DCMESH_TEST_DEMO — absolute path to the intercept_demo executable
//
// NOTE on dlopen'd state: this test binary links the engine statically,
// and the shim carries its OWN statically linked copy.  Introspection of
// shim-routed calls (dcmesh_last_call_site etc.) must therefore go
// through function pointers resolved from the shim handle — the test's
// own dcmesh_* symbols observe a different, untouched engine instance.

#include <gtest/gtest.h>

#include <dlfcn.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "dcmesh/common/env.hpp"

namespace {

const char* shim_path() {
  const char* p = std::getenv("DCMESH_TEST_SHIM");
  return p != nullptr ? p : "";
}

const char* demo_path() {
  const char* p = std::getenv("DCMESH_TEST_DEMO");
  return p != nullptr ? p : "";
}

/// dlopen the shim once for the whole suite (RTLD_LOCAL so its symbols
/// never shadow the test's own engine).
void* shim_handle() {
  static void* handle = [] {
    void* h = dlopen(shim_path(), RTLD_NOW | RTLD_LOCAL);
    if (h == nullptr) {
      std::fprintf(stderr, "dlopen(%s): %s\n", shim_path(), dlerror());
    }
    return h;
  }();
  return handle;
}

using sgemm_fn = void (*)(int, int, int, int, int, int, float,
                          const float*, int, const float*, int, float,
                          float*, int);
using dtrsm_fn = void (*)(int, int, int, int, int, int, int, double,
                          const double*, int, double*, int);
using dsyrk_fn = void (*)(int, int, int, int, int, double, const double*,
                          int, double, double*, int);
using dgemv_fn = void (*)(int, int, int, int, double, const double*, int,
                          const double*, int, double, double*, int);
using dgemv_f77_fn = void (*)(const char*, const int*, const int*,
                              const double*, const double*, const int*,
                              const double*, const int*, const double*,
                              double*, const int*);
using last_site_fn = int (*)(char*, unsigned long);
using call_count_fn = unsigned long long (*)(void);
using str_fn = const char* (*)(void);
using int_fn = int (*)(void);

template <typename Fn>
Fn shim_sym(const char* name) {
  return reinterpret_cast<Fn>(dlsym(shim_handle(), name));
}

/// Run a shell command, capture combined stdout+stderr and exit status.
struct run_result {
  int status = -1;
  std::string output;
};

run_result run(const std::string& cmd) {
  run_result r;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    r.output += buf.data();
  }
  const int rc = pclose(pipe);
  r.status = (rc >= 0 && WIFEXITED(rc)) ? WEXITSTATUS(rc) : -1;
  return r;
}

std::string slurp(const std::string& path) {
  std::string text;
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return text;
  std::array<char, 4096> buf;
  size_t got;
  while ((got = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
    text.append(buf.data(), got);
  }
  std::fclose(f);
  return text;
}

// Two PHYSICALLY distinct call sites into the shim's cblas_sgemm, kept
// noinline so each has its own return address.  A 1x1x1 GEMM keeps the
// engine work negligible.
__attribute__((noinline)) void poke_site_a(sgemm_fn gemm) {
  float a = 1.0f, b = 2.0f, c = 0.0f;
  gemm(102, 111, 111, 1, 1, 1, 1.0f, &a, 1, &b, 1, 0.0f, &c, 1);
  ASSERT_FLOAT_EQ(c, 2.0f);
}

__attribute__((noinline)) void poke_site_b(sgemm_fn gemm) {
  float a = 3.0f, b = 5.0f, c = 0.0f;
  gemm(102, 111, 111, 1, 1, 1, 1.0f, &a, 1, &b, 1, 0.0f, &c, 1);
  ASSERT_FLOAT_EQ(c, 15.0f);
}

std::string shim_last_site() {
  auto last_site = shim_sym<last_site_fn>("dcmesh_last_call_site");
  char buf[256] = {0};
  const int n = last_site(buf, sizeof buf);
  EXPECT_GE(n, 0);
  return std::string(buf);
}

}  // namespace

TEST(Intercept, ShimLoadsAndExportsEveryPublicSymbol) {
  ASSERT_NE(shim_handle(), nullptr) << dlerror();
  const char* names[] = {
      // interposed BLAS
      "cblas_sgemm", "cblas_dgemm", "cblas_cgemm", "cblas_zgemm",
      "cblas_sgemm_batch_strided", "cblas_dgemm_batch_strided",
      "cblas_cgemm_batch_strided", "cblas_zgemm_batch_strided",
      "sgemm_", "dgemm_", "cgemm_", "zgemm_",
      // interposed BLAS added in v1.1
      "cblas_strsm", "cblas_dtrsm", "cblas_ssyrk", "cblas_dsyrk",
      // interposed BLAS added in v1.2
      "cblas_sgemv", "cblas_dgemv", "sgemv_", "dgemv_",
      // public C API re-exported through the shim
      "dcmesh_api_version", "dcmesh_api_version_string",
      "dcmesh_last_error", "dcmesh_gemm", "dcmesh_gemm_batch_strided",
      "dcmesh_gemm_desc_create", "dcmesh_gemm_desc_destroy",
      "dcmesh_gemm_desc_set_layout", "dcmesh_gemm_desc_set_transpose",
      "dcmesh_gemm_desc_set_shape", "dcmesh_gemm_desc_set_scalars",
      "dcmesh_gemm_desc_set_operands", "dcmesh_gemm_desc_set_site",
      "dcmesh_gemm_desc_set_mode", "dcmesh_gemm_execute",
      "dcmesh_set_policy", "dcmesh_set_compute_mode",
      "dcmesh_set_num_threads", "dcmesh_install_autotuner",
      "dcmesh_call_count", "dcmesh_last_call_site", "dcmesh_last_call_mode",
      "dcmesh_metrics_report",
      // shim introspection
      "dcmesh_intercept_site_mode", "dcmesh_intercept_autotune",
      "dcmesh_intercept_chain",
  };
  for (const char* name : names) {
    EXPECT_NE(dlsym(shim_handle(), name), nullptr) << name;
  }
}

TEST(Intercept, SymbolsCarryTheVersionNode) {
  ASSERT_NE(shim_handle(), nullptr);
  // dlvsym resolves only when the symbol is tagged with the exact
  // version — proof the version script is in force.
  EXPECT_NE(dlvsym(shim_handle(), "cblas_sgemm", "DCMESH_1.0"), nullptr);
  EXPECT_NE(dlvsym(shim_handle(), "dgemm_", "DCMESH_1.0"), nullptr);
  EXPECT_NE(dlvsym(shim_handle(), "dcmesh_gemm", "DCMESH_1.0"), nullptr);
  EXPECT_EQ(dlvsym(shim_handle(), "cblas_sgemm", "DCMESH_9.9"), nullptr);
  // The v1.1 additions live in their own node: they resolve at 1.1, not
  // at 1.0 — and the original set stays pinned to 1.0.
  EXPECT_NE(dlvsym(shim_handle(), "cblas_strsm", "DCMESH_1.1"), nullptr);
  EXPECT_NE(dlvsym(shim_handle(), "cblas_dsyrk", "DCMESH_1.1"), nullptr);
  EXPECT_EQ(dlvsym(shim_handle(), "cblas_strsm", "DCMESH_1.0"), nullptr);
  EXPECT_EQ(dlvsym(shim_handle(), "cblas_sgemm", "DCMESH_1.1"), nullptr);
  // And the v1.2 gemv surface in ITS own node, invisible at 1.1.
  EXPECT_NE(dlvsym(shim_handle(), "cblas_sgemv", "DCMESH_1.2"), nullptr);
  EXPECT_NE(dlvsym(shim_handle(), "dgemv_", "DCMESH_1.2"), nullptr);
  EXPECT_EQ(dlvsym(shim_handle(), "cblas_sgemv", "DCMESH_1.1"), nullptr);
  EXPECT_EQ(dlvsym(shim_handle(), "cblas_strsm", "DCMESH_1.2"), nullptr);
}

TEST(Intercept, TrsmAndSyrkRouteThroughTheEngine) {
  ASSERT_NE(shim_handle(), nullptr);
  auto trsm = shim_sym<dtrsm_fn>("cblas_dtrsm");
  auto syrk = shim_sym<dsyrk_fn>("cblas_dsyrk");
  ASSERT_NE(trsm, nullptr);
  ASSERT_NE(syrk, nullptr);

  // Solve L X = B with L = [[2,0],[1,4]], X = [[1,2],[3,4]].
  const double a_col[] = {2.0, 1.0, 0.0, 4.0};   // L, col-major
  double b_col[] = {2.0, 13.0, 4.0, 18.0};       // B = L X, col-major
  trsm(102, 141, 122, 111, 131, 2, 2, 1.0, a_col, 2, b_col, 2);
  EXPECT_DOUBLE_EQ(b_col[0], 1.0);
  EXPECT_DOUBLE_EQ(b_col[1], 3.0);
  EXPECT_DOUBLE_EQ(b_col[2], 2.0);
  EXPECT_DOUBLE_EQ(b_col[3], 4.0);

  // The same solve through the row-major entry (flips side/uplo and
  // swaps m/n internally) must give the same X.
  const double a_row[] = {2.0, 0.0, 1.0, 4.0};   // L, row-major
  double b_row[] = {2.0, 4.0, 13.0, 18.0};       // B, row-major
  trsm(101, 141, 122, 111, 131, 2, 2, 1.0, a_row, 2, b_row, 2);
  EXPECT_DOUBLE_EQ(b_row[0], 1.0);
  EXPECT_DOUBLE_EQ(b_row[1], 2.0);
  EXPECT_DOUBLE_EQ(b_row[2], 3.0);
  EXPECT_DOUBLE_EQ(b_row[3], 4.0);

  // C = A A^T with A = [1,2]^T: C = [[1,2],[2,4]], written full.
  const double a_vec[] = {1.0, 2.0};
  double c_col[] = {0.0, 0.0, 0.0, 0.0};
  syrk(102, 121, 111, 2, 1, 1.0, a_vec, 2, 0.0, c_col, 2);
  EXPECT_DOUBLE_EQ(c_col[0], 1.0);
  EXPECT_DOUBLE_EQ(c_col[1], 2.0);
  EXPECT_DOUBLE_EQ(c_col[2], 2.0);
  EXPECT_DOUBLE_EQ(c_col[3], 4.0);

  double c_row[] = {0.0, 0.0, 0.0, 0.0};
  syrk(101, 121, 111, 2, 1, 1.0, a_vec, 1, 0.0, c_row, 2);
  EXPECT_DOUBLE_EQ(c_row[0], 1.0);
  EXPECT_DOUBLE_EQ(c_row[1], 2.0);
  EXPECT_DOUBLE_EQ(c_row[2], 2.0);
  EXPECT_DOUBLE_EQ(c_row[3], 4.0);

  // Malformed arguments are dropped xerbla-style: B stays untouched.
  double b_bad[] = {7.0, 7.0, 7.0, 7.0};
  trsm(102, 999, 122, 111, 131, 2, 2, 1.0, a_col, 2, b_bad, 2);
  EXPECT_DOUBLE_EQ(b_bad[0], 7.0);
  EXPECT_DOUBLE_EQ(b_bad[3], 7.0);
}

TEST(Intercept, GemvRoutesThroughTheEngine) {
  ASSERT_NE(shim_handle(), nullptr);
  auto gemv = shim_sym<dgemv_fn>("cblas_dgemv");
  auto gemv_f = shim_sym<dgemv_f77_fn>("dgemv_");
  ASSERT_NE(gemv, nullptr);
  ASSERT_NE(gemv_f, nullptr);

  // y = A x with A = [[1,2],[3,4]], x = [1,1]: y = [3,7].
  const double a_col[] = {1.0, 3.0, 2.0, 4.0};  // A, col-major
  const double x[] = {1.0, 1.0};
  double y_col[] = {0.0, 0.0};
  gemv(102, 111, 2, 2, 1.0, a_col, 2, x, 1, 0.0, y_col, 1);
  EXPECT_DOUBLE_EQ(y_col[0], 3.0);
  EXPECT_DOUBLE_EQ(y_col[1], 7.0);

  // The same product through the row-major entry (swaps m/n and flips
  // the transpose internally) must agree.
  const double a_row[] = {1.0, 2.0, 3.0, 4.0};  // A, row-major
  double y_row[] = {0.0, 0.0};
  gemv(101, 111, 2, 2, 1.0, a_row, 2, x, 1, 0.0, y_row, 1);
  EXPECT_DOUBLE_EQ(y_row[0], 3.0);
  EXPECT_DOUBLE_EQ(y_row[1], 7.0);

  // ConjTrans on the real entry behaves as Trans: y = A^T x = [4,6].
  double y_ct[] = {0.0, 0.0};
  gemv(102, 113, 2, 2, 1.0, a_col, 2, x, 1, 0.0, y_ct, 1);
  EXPECT_DOUBLE_EQ(y_ct[0], 4.0);
  EXPECT_DOUBLE_EQ(y_ct[1], 6.0);

  // Fortran spelling: column-major by definition, args by reference.
  const int two = 2, one = 1;
  const double alpha = 1.0, beta = 0.0;
  double y_f[] = {0.0, 0.0};
  gemv_f("N", &two, &two, &alpha, a_col, &two, x, &one, &beta, y_f, &one);
  EXPECT_DOUBLE_EQ(y_f[0], 3.0);
  EXPECT_DOUBLE_EQ(y_f[1], 7.0);

  // Malformed arguments are dropped xerbla-style: y stays untouched.
  double y_bad[] = {7.0, 7.0};
  gemv(102, 999, 2, 2, 1.0, a_col, 2, x, 1, 0.0, y_bad, 1);
  EXPECT_DOUBLE_EQ(y_bad[0], 7.0);
  EXPECT_DOUBLE_EQ(y_bad[1], 7.0);
}

TEST(Intercept, InternalEngineSymbolsStayHidden) {
  ASSERT_NE(shim_handle(), nullptr);
  // A C++ engine symbol that IS present in the shim's static code but
  // must not leak through `local: *`.
  EXPECT_EQ(dlsym(shim_handle(), "_ZN6dcmesh4blas14clear_call_logEv"),
            nullptr);
  // Level-3 names the shim does not (yet) interpose must not resolve
  // either — an application's own ssyrk_ has to reach the system BLAS.
  // (cblas_ssyrk graduated to an export in v1.1; the Fortran spellings
  // and the triangular multiply are still pass-through.)
  EXPECT_EQ(dlsym(shim_handle(), "ssyrk_"), nullptr);
  EXPECT_EQ(dlsym(shim_handle(), "strsm_"), nullptr);
  EXPECT_EQ(dlsym(shim_handle(), "cblas_strmm"), nullptr);
}

TEST(Intercept, ApiVersionThroughTheShim) {
  ASSERT_NE(shim_handle(), nullptr);
  auto version = shim_sym<int_fn>("dcmesh_api_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version(), 1000);  // 1.0
}

TEST(Intercept, SiteIdentityStableAndDistinct) {
  ASSERT_NE(shim_handle(), nullptr);
  auto gemm = shim_sym<sgemm_fn>("cblas_sgemm");
  ASSERT_NE(gemm, nullptr);

  poke_site_a(gemm);
  const std::string site_a1 = shim_last_site();
  poke_site_b(gemm);
  const std::string site_b = shim_last_site();
  poke_site_a(gemm);
  const std::string site_a2 = shim_last_site();

  EXPECT_EQ(site_a1.rfind("intercept/", 0), 0u) << site_a1;
  EXPECT_EQ(site_b.rfind("intercept/", 0), 0u) << site_b;
  // Repeated calls from the same physical site: identical tag (this is
  // what keeps wisdom warm).  Distinct sites: distinct tags.
  EXPECT_EQ(site_a1, site_a2);
  EXPECT_NE(site_a1, site_b);
  // Default addr mode encodes a module-relative offset.
  EXPECT_NE(site_a1.find("+0x"), std::string::npos) << site_a1;
}

TEST(Intercept, SingleSiteModeCollapsesAllSites) {
  ASSERT_NE(shim_handle(), nullptr);
  auto gemm = shim_sym<sgemm_fn>("cblas_sgemm");
  auto mode = shim_sym<str_fn>("dcmesh_intercept_site_mode");
  ASSERT_NE(gemm, nullptr);
  ASSERT_NE(mode, nullptr);

  dcmesh::env_set("DCMESH_INTERCEPT_SITE_MODE", "single");
  EXPECT_STREQ(mode(), "single");
  poke_site_a(gemm);
  const std::string site_a = shim_last_site();
  poke_site_b(gemm);
  const std::string site_b = shim_last_site();
  EXPECT_EQ(site_a, "intercept/app");
  EXPECT_EQ(site_b, "intercept/app");
  dcmesh::env_unset("DCMESH_INTERCEPT_SITE_MODE");
}

TEST(Intercept, SymbolSiteModeNamesTheCaller) {
  ASSERT_NE(shim_handle(), nullptr);
  auto gemm = shim_sym<sgemm_fn>("cblas_sgemm");
  auto mode = shim_sym<str_fn>("dcmesh_intercept_site_mode");
  ASSERT_NE(gemm, nullptr);
  ASSERT_NE(mode, nullptr);

  ::setenv("DCMESH_INTERCEPT_SITE_MODE", "symbol", 1);
  // The shim's own knob cache sees a host's setenv through its
  // introspection call.
  EXPECT_STREQ(mode(), "symbol");
  poke_site_a(gemm);
  const std::string site = shim_last_site();
  ::unsetenv("DCMESH_INTERCEPT_SITE_MODE");
  EXPECT_EQ(site.rfind("intercept/", 0), 0u) << site;
  // The caller is a static function in this binary: with -rdynamic off,
  // dladdr may or may not find a name, but the tag must still be a
  // module-scoped identity, never empty and never the raw-pointer form
  // used when dladdr fails entirely.
  EXPECT_GT(site.size(), std::string("intercept/").size());
}

TEST(Intercept, MalformedEnvWarnsOnceAndFallsBack) {
  ASSERT_NE(shim_handle(), nullptr);
  auto mode = shim_sym<str_fn>("dcmesh_intercept_site_mode");
  auto autotune = shim_sym<int_fn>("dcmesh_intercept_autotune");
  ASSERT_NE(mode, nullptr);
  ASSERT_NE(autotune, nullptr);

  // Malformed values never throw and resolve to the documented default.
  ::setenv("DCMESH_INTERCEPT_SITE_MODE", "bogus-mode", 1);
  EXPECT_STREQ(mode(), "addr");
  EXPECT_STREQ(mode(), "addr");  // second read: cached, no second warning
  ::setenv("DCMESH_INTERCEPT_AUTOTUNE", "banana", 1);
  EXPECT_EQ(autotune(), 1);

  // Case-insensitive well-formed values are honored.
  ::setenv("DCMESH_INTERCEPT_SITE_MODE", "SYMBOL", 1);
  EXPECT_STREQ(mode(), "symbol");
  ::setenv("DCMESH_INTERCEPT_AUTOTUNE", "off", 1);
  EXPECT_EQ(autotune(), 0);

  // Empty string means "unset": defaults again.
  ::setenv("DCMESH_INTERCEPT_SITE_MODE", "", 1);
  EXPECT_STREQ(mode(), "addr");
  ::setenv("DCMESH_INTERCEPT_AUTOTUNE", "", 1);
  EXPECT_EQ(autotune(), 1);

  ::unsetenv("DCMESH_INTERCEPT_SITE_MODE");
  ::unsetenv("DCMESH_INTERCEPT_AUTOTUNE");
}

TEST(Intercept, ShimCallsLandInTheShimEngineOnly) {
  ASSERT_NE(shim_handle(), nullptr);
  auto gemm = shim_sym<sgemm_fn>("cblas_sgemm");
  auto count = shim_sym<call_count_fn>("dcmesh_call_count");
  ASSERT_NE(gemm, nullptr);
  ASSERT_NE(count, nullptr);

  const unsigned long long before = count();
  poke_site_a(gemm);
  EXPECT_EQ(count(), before + 1);
}

TEST(Intercept, ChainFlagParsesLikeEveryOtherSwitch) {
  ASSERT_NE(shim_handle(), nullptr);
  auto chain = shim_sym<int_fn>("dcmesh_intercept_chain");
  ASSERT_NE(chain, nullptr);

  // Default off — the opposite of autotune, because chaining silently
  // changes which BLAS executes.
  ::unsetenv("DCMESH_INTERCEPT_CHAIN");
  EXPECT_EQ(chain(), 0);
  ::setenv("DCMESH_INTERCEPT_CHAIN", "on", 1);
  EXPECT_EQ(chain(), 1);
  ::setenv("DCMESH_INTERCEPT_CHAIN", "banana", 1);
  EXPECT_EQ(chain(), 0);  // malformed: warn once, default off
  ::setenv("DCMESH_INTERCEPT_CHAIN", "", 1);
  EXPECT_EQ(chain(), 0);
  ::unsetenv("DCMESH_INTERCEPT_CHAIN");
}

TEST(Intercept, ChainWithoutNextBlasFallsBackToEngine) {
  ASSERT_NE(shim_handle(), nullptr);
  auto gemm = shim_sym<sgemm_fn>("cblas_sgemm");
  auto count = shim_sym<call_count_fn>("dcmesh_call_count");
  ASSERT_NE(gemm, nullptr);
  ASSERT_NE(count, nullptr);

  // The shim was dlopen'd LAST, so dlsym(RTLD_NEXT, "cblas_sgemm") from
  // inside it finds nothing: the chain must fall back to the engine and
  // the call must still compute correctly.
  auto chain = shim_sym<int_fn>("dcmesh_intercept_chain");
  ASSERT_NE(chain, nullptr);
  ::setenv("DCMESH_INTERCEPT_CHAIN", "1", 1);
  EXPECT_EQ(chain(), 1);  // hands the new value to the shim's knob cache
  const unsigned long long before = count();
  poke_site_a(gemm);
  EXPECT_EQ(count(), before + 1);
  ::unsetenv("DCMESH_INTERCEPT_CHAIN");
  EXPECT_EQ(chain(), 0);
}

// ---------------------------------------------------------------------
// End-to-end: LD_PRELOAD the shim under the demo binary, which links
// only the naive stand-in BLAS and knows nothing about dcmesh.

TEST(InterceptEndToEnd, PreloadRoutesDemoThroughEngine) {
  ASSERT_STRNE(shim_path(), "");
  ASSERT_STRNE(demo_path(), "");
  const std::string wisdom =
      ::testing::TempDir() + "/intercept_wisdom.jsonl";
  const std::string trace = ::testing::TempDir() + "/intercept_trace.json";
  std::remove(wisdom.c_str());
  std::remove(trace.c_str());

  const std::string base = "LD_PRELOAD='" + std::string(shim_path()) +
                           "' MKL_VERBOSE=1 DCMESH_TUNE_CACHE='" + wisdom +
                           "' DCMESH_TRACE_JSON='" + trace +
                           "' DCMESH_BLAS_POLICY='intercept/*=auto' '" +
                           demo_path() + "'";

  // Cold: accuracy checks pass, verbose records carry intercept/ sites,
  // AUTO rules calibrate, wisdom lands on disk.
  const run_result cold = run(base);
  EXPECT_EQ(cold.status, 0) << cold.output;
  EXPECT_NE(cold.output.find("intercept_demo: status=ok"),
            std::string::npos) << cold.output;
  EXPECT_NE(cold.output.find("site:intercept/"), std::string::npos)
      << cold.output;
  EXPECT_NE(cold.output.find("tune/calibrate"), std::string::npos)
      << cold.output;
  const std::string cache = slurp(wisdom);
  EXPECT_NE(cache.find("dcmesh_wisdom"), std::string::npos) << cache;
  EXPECT_NE(cache.find("intercept/"), std::string::npos) << cache;
  // The tracer's atexit flush fires inside the preloaded engine too:
  // Chrome-trace spans named after the interposed sites.
  const std::string spans = slurp(trace);
  EXPECT_NE(spans.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(spans.find("intercept/"), std::string::npos);

  // Warm: same command, zero recalibration, answers still good.
  const run_result warm = run(base);
  EXPECT_EQ(warm.status, 0) << warm.output;
  EXPECT_NE(warm.output.find("intercept_demo: status=ok"),
            std::string::npos) << warm.output;
  EXPECT_EQ(warm.output.find("tune/calibrate"), std::string::npos)
      << warm.output;
  EXPECT_NE(warm.output.find("tune:cached"), std::string::npos)
      << warm.output;
}

TEST(InterceptEndToEnd, ChainPreloadHandsCallsBackToTheRealBlas) {
  ASSERT_STRNE(shim_path(), "");
  ASSERT_STRNE(demo_path(), "");
  const std::string wisdom =
      ::testing::TempDir() + "/intercept_chain_wisdom.jsonl";
  std::remove(wisdom.c_str());

  // DCMESH_INTERCEPT_CHAIN=1: the preloaded shim forwards every GEMM to
  // the next cblas_* in the link chain — the demo's own stand-in BLAS —
  // so the dcmesh engine must see NOTHING: no verbose records, no
  // calibration, no wisdom file, yet the demo's answers stay correct.
  const run_result chained = run(
      "LD_PRELOAD='" + std::string(shim_path()) +
      "' MKL_VERBOSE=1 DCMESH_INTERCEPT_CHAIN=1 DCMESH_TUNE_CACHE='" +
      wisdom + "' DCMESH_BLAS_POLICY='intercept/*=auto' '" + demo_path() +
      "'");
  EXPECT_EQ(chained.status, 0) << chained.output;
  EXPECT_NE(chained.output.find("intercept_demo: status=ok"),
            std::string::npos) << chained.output;
  EXPECT_EQ(chained.output.find("MKL_VERBOSE"), std::string::npos)
      << chained.output;
  EXPECT_EQ(chained.output.find("tune/calibrate"), std::string::npos)
      << chained.output;
  EXPECT_EQ(slurp(wisdom), "") << "chained run must not write wisdom";
}

TEST(InterceptEndToEnd, DemoStandsAloneWithoutPreload) {
  ASSERT_STRNE(demo_path(), "");
  // Sanity of the harness itself: the demo must also pass on the naive
  // stand-in BLAS, and must NOT emit dcmesh verbose records.
  const run_result plain =
      run("MKL_VERBOSE=1 '" + std::string(demo_path()) + "'");
  EXPECT_EQ(plain.status, 0) << plain.output;
  EXPECT_NE(plain.output.find("intercept_demo: status=ok"),
            std::string::npos) << plain.output;
  EXPECT_EQ(plain.output.find("MKL_VERBOSE"), std::string::npos)
      << plain.output;
}
