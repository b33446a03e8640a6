// Tests for the campaign farm: sweep-deck parsing and deterministic
// run-matrix expansion, the checksummed resume manifest, and the full
// dcmesh_campaign -> dcehd pipeline run end-to-end in subprocesses —
// including the two acceptance scenarios from the ISSUE: an 8-run
// campaign over a shared wisdom store calibrating each key in at most
// the first worker to reach it, and a kill-one-run-then-reinvoke resume
// that skips completed runs.
//
// The end-to-end tests locate the binaries through DCMESH_TEST_CAMPAIGN
// and DCMESH_TEST_DCEHD (set by ctest; see tests/CMakeLists.txt).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include "dcmesh/tune/wisdom.hpp"

#include <array>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dcmesh/core/presets.hpp"
#include "dcmesh/farm/manifest.hpp"
#include "dcmesh/farm/runner.hpp"
#include "dcmesh/farm/sweep.hpp"

namespace dcmesh::farm {
namespace {

std::string test_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  (void)std::system(("rm -rf '" + dir + "'").c_str());
  return dir;
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
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) text += line + '\n';
  return text;
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// Every `"calibration_gemms": N` value in a campaign report, run order.
std::vector<long long> calibration_counts(const std::string& report) {
  std::vector<long long> counts;
  const std::string needle = "\"calibration_gemms\": ";
  for (std::size_t at = report.find(needle); at != std::string::npos;
       at = report.find(needle, at + needle.size())) {
    counts.push_back(std::atoll(report.c_str() + at + needle.size()));
  }
  return counts;
}

/// Path to a driver binary exported by ctest, or "" outside ctest.
std::string test_binary(const char* var) {
  const char* path = std::getenv(var);
  return path != nullptr ? std::string(path) : std::string();
}

#define REQUIRE_CAMPAIGN_BINARIES()                                    \
  const std::string campaign = test_binary("DCMESH_TEST_CAMPAIGN");    \
  const std::string dcehd = test_binary("DCMESH_TEST_DCEHD");          \
  if (campaign.empty() || dcehd.empty()) {                             \
    GTEST_SKIP() << "DCMESH_TEST_CAMPAIGN / DCMESH_TEST_DCEHD not set" \
                    " (run under ctest)";                              \
  }

// -------------------------------------------------------------- sweep ---

TEST(SweepTest, ParsesAxesSpecialKeysAndEnvVsDeckPlacement) {
  std::istringstream deck(
      "preset = tiny\n"
      "workers = 3\n"
      "timeout = 42\n"
      "# precision axes\n"
      "mesh_n = 8, 12\n"
      "MKL_BLAS_COMPUTE_MODE = STANDARD, FLOAT_TO_BF16X2\n"
      "pulse_e0 = 0.05\n");
  const sweep_spec spec = parse_sweep(deck);
  EXPECT_EQ(spec.workers, 3);
  EXPECT_DOUBLE_EQ(spec.timeout_seconds, 42.0);
  ASSERT_EQ(spec.axes.size(), 3u);
  EXPECT_EQ(spec.axes[0].key, "mesh_n");
  EXPECT_FALSE(spec.axes[0].is_env);
  EXPECT_EQ(spec.axes[0].values, (std::vector<std::string>{"8", "12"}));
  EXPECT_EQ(spec.axes[1].key, "MKL_BLAS_COMPUTE_MODE");
  EXPECT_TRUE(spec.axes[1].is_env);
  EXPECT_EQ(spec.axes[2].values, (std::vector<std::string>{"0.05"}));
}

TEST(SweepTest, ExpansionIsDeterministicFirstAxisSlowest) {
  sweep_spec spec;
  spec.base = core::preset(core::paper_system::tiny);
  add_axis(spec, "mesh_n=8,12");
  add_axis(spec, "MKL_BLAS_COMPUTE_MODE=STANDARD,FLOAT_TO_BF16X2");
  const auto runs = expand(spec);
  ASSERT_EQ(runs.size(), 4u);

  // Stable zero-padded ids in declaration order, first axis slowest.
  EXPECT_EQ(runs[0].id, "run-0000");
  EXPECT_EQ(runs[3].id, "run-0003");
  EXPECT_EQ(runs[0].tag, "mesh_n=8,MKL_BLAS_COMPUTE_MODE=STANDARD");
  EXPECT_EQ(runs[1].tag, "mesh_n=8,MKL_BLAS_COMPUTE_MODE=FLOAT_TO_BF16X2");
  EXPECT_EQ(runs[2].tag, "mesh_n=12,MKL_BLAS_COMPUTE_MODE=STANDARD");

  // Deck axes land in the deck text (appended, so last-wins overrides
  // the base); env axes land in the per-run environment, not the deck.
  EXPECT_NE(runs[2].deck.find("mesh_n = 12"), std::string::npos);
  EXPECT_EQ(runs[2].deck.find("MKL_BLAS_COMPUTE_MODE"), std::string::npos);
  ASSERT_EQ(runs[1].env.size(), 1u);
  EXPECT_EQ(runs[1].env[0].first, "MKL_BLAS_COMPUTE_MODE");
  EXPECT_EQ(runs[1].env[0].second, "FLOAT_TO_BF16X2");

  // Same spec, same matrix — the manifest depends on it.
  const auto again = expand(spec);
  ASSERT_EQ(again.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(again[i].id, runs[i].id);
    EXPECT_EQ(again[i].deck, runs[i].deck);
  }
}

TEST(SweepTest, RejectsUnknownDeckKeysAndMalformedAxes) {
  sweep_spec spec;
  spec.base = core::preset(core::paper_system::tiny);
  EXPECT_THROW(add_axis(spec, "no_equals_sign"), std::runtime_error);
  EXPECT_THROW(add_axis(spec, "=missing_key"), std::runtime_error);

  // An unknown deck key is caught at expansion, when each cell's deck is
  // round-tripped through the run-deck parser — not at spawn time.
  add_axis(spec, "bogus_knob=1,2");
  EXPECT_THROW((void)expand(spec), std::runtime_error);
}

TEST(SweepTest, EnvAxisValuesMayContainEqualsSigns) {
  // A swept precision policy is itself "site=mode" syntax; only the
  // FIRST '=' splits the assignment.
  sweep_spec spec;
  spec.base = core::preset(core::paper_system::tiny);
  add_axis(spec, "DCMESH_BLAS_POLICY=lfd/*=auto");
  const auto runs = expand(spec);
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(runs[0].env.size(), 1u);
  EXPECT_EQ(runs[0].env[0].second, "lfd/*=auto");
}

TEST(SweepTest, EnvAxesAreExactlyTheKnobTable) {
  sweep_spec spec;
  spec.base = core::preset(core::paper_system::tiny);
  // A misspelt knob used to run the same cell twice without complaint; it
  // now fails at expansion, as an unknown deck key does.
  add_axis(spec, "DCMESH_HEALHT=full,off");
  EXPECT_TRUE(spec.axes[0].is_env);
  EXPECT_THROW((void)expand(spec), std::runtime_error);
}

TEST(SweepTest, EnvAxisValuesAreCheckedByTheirKnobsGrammar) {
  for (const char* axis :
       {"DCMESH_HEALTH=full,loud", "MKL_BLAS_COMPUTE_MODE=STANDARD,BF17",
        "DCMESH_SCHED=pool:0", "DCMESH_BLAS_POLICY=no-equals-sign",
        "MKL_NUM_THREADS=4x", "DCMESH_FARM_KILL=run-*:soon"}) {
    sweep_spec spec;
    spec.base = core::preset(core::paper_system::tiny);
    add_axis(spec, axis);
    EXPECT_THROW((void)expand(spec), std::runtime_error) << axis;
  }
}

TEST(SweepTest, OmpNumThreadsIsALegalEnvAxis) {
  sweep_spec spec;
  spec.base = core::preset(core::paper_system::tiny);
  add_axis(spec, "OMP_NUM_THREADS=1,2");
  add_axis(spec, "dcmesh_health=full");  // env keys take the table's case
  const auto runs = expand(spec);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1].tag, "OMP_NUM_THREADS=2,DCMESH_HEALTH=full");
  ASSERT_EQ(runs[1].env.size(), 2u);
  EXPECT_EQ(runs[1].env[0].first, "OMP_NUM_THREADS");
  EXPECT_EQ(runs[1].env[1].first, "DCMESH_HEALTH");
}

// ----------------------------------------------------------- manifest ---

TEST(ManifestTest, LineRoundTripsAndChecksumRejectsTampering) {
  manifest_entry entry;
  entry.run_id = "run-0007";
  entry.status = "timed-out";
  entry.exit_code = -9;
  entry.seconds = 12.25;
  entry.calibration_gemms = 42;

  const std::string line = manifest_line(entry);
  const auto parsed = parse_manifest_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->run_id, "run-0007");
  EXPECT_EQ(parsed->status, "timed-out");
  EXPECT_EQ(parsed->exit_code, -9);
  EXPECT_DOUBLE_EQ(parsed->seconds, 12.25);
  EXPECT_EQ(parsed->calibration_gemms, 42u);
  EXPECT_FALSE(parsed->completed());

  // Flip the recorded status without recomputing the checksum: the line
  // must be rejected — a hand-mangled manifest cannot fake completion.
  std::string tampered = line;
  const auto at = tampered.find("timed-out");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, 9, "ok\",\"pad\":\"xxxxxx");
  EXPECT_FALSE(parse_manifest_line(tampered).has_value());
  EXPECT_FALSE(parse_manifest_line("not json at all").has_value());
  EXPECT_FALSE(parse_manifest_line("").has_value());
}

TEST(ManifestTest, RecordLoadResumeSemantics) {
  const std::string path = test_dir("manifest_rr") + ".jsonl";
  std::remove(path.c_str());

  EXPECT_FALSE(load_manifest(path).existed);

  manifest_entry crash;
  crash.run_id = "run-0001";
  crash.status = "crashed";
  crash.exit_code = -9;
  ASSERT_TRUE(record_run(path, crash));

  manifest_entry ok;
  ok.run_id = "run-0000";
  ok.status = "ok";
  ok.seconds = 1.5;
  ASSERT_TRUE(record_run(path, ok));

  // A retry of the crashed run supersedes its entry: last writer wins
  // per run id, and the file holds one entry per run.
  crash.status = "ok";
  crash.exit_code = 0;
  ASSERT_TRUE(record_run(path, crash));

  const auto manifest = load_manifest(path);
  EXPECT_TRUE(manifest.existed);
  EXPECT_TRUE(manifest.version_ok);
  EXPECT_EQ(manifest.rejected_lines, 0u);
  ASSERT_EQ(manifest.entries.size(), 2u);
  const auto* retried = manifest.find("run-0001");
  ASSERT_NE(retried, nullptr);
  EXPECT_TRUE(retried->completed());
  EXPECT_EQ(manifest.find("run-0404"), nullptr);
  std::remove(path.c_str());
}

TEST(ManifestTest, TornLinesAreDroppedIndividually) {
  const std::string path = test_dir("manifest_torn") + ".jsonl";
  manifest_entry good;
  good.run_id = "run-0000";
  good.status = "ok";
  {
    std::ofstream os(path, std::ios::trunc);
    os << manifest_header() << "\n"
       << manifest_line(good) << "\n"
       << "{\"run\":\"run-0001\",\"status\":\"ok\",\"torn";  // no newline
  }
  const auto manifest = load_manifest(path);
  EXPECT_TRUE(manifest.version_ok);
  ASSERT_EQ(manifest.entries.size(), 1u);
  EXPECT_EQ(manifest.entries[0].run_id, "run-0000");
  EXPECT_EQ(manifest.rejected_lines, 1u);
  std::remove(path.c_str());
}

TEST(ManifestTest, ForeignHeaderRejectsWholeFile) {
  const std::string path = test_dir("manifest_foreign") + ".jsonl";
  {
    std::ofstream os(path, std::ios::trunc);
    os << "{\"somebody_elses_manifest\":7}\n";
  }
  const auto manifest = load_manifest(path);
  EXPECT_TRUE(manifest.existed);
  EXPECT_FALSE(manifest.version_ok);
  EXPECT_TRUE(manifest.entries.empty());
  std::remove(path.c_str());
}

// ------------------------------------------------------- end-to-end ---

// The ISSUE acceptance scenario: >= 8 runs over >= 2 workers against one
// shared wisdom store, with an auto policy so every worker needs tuned
// decisions.  All runs share one mesh size (hence one set of GEMM shape
// classes), so calibration must happen in EXACTLY one run — the cold
// scout — and every later run must show zero calibration GEMMs and
// cached tune provenance.
TEST(CampaignEndToEnd, EightRunsTwoWorkersCalibrateOnlyInTheScout) {
  REQUIRE_CAMPAIGN_BINARIES();
  const std::string out = test_dir("campaign_shared");

  const auto result = run(
      campaign + " --driver " + dcehd +
      " --set 'blas_policy=lfd/*=auto'"
      " --set pulse_e0=0.02,0.04,0.06,0.08,0.1,0.12,0.14,0.16"
      " --workers 2 --timeout 120 --out " + out);
  ASSERT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("8/8 complete"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("scouting run-0000 alone"), std::string::npos)
      << result.output;

  const std::string report = slurp(out + "/BENCH_campaign.json");
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(count_occurrences(report, "\"status\": \"ok\""), 8u);

  // Calibration GEMMs in the scout ONLY; the seven followers resolve
  // every site from the shared store.
  const auto calibrations = calibration_counts(report);
  ASSERT_EQ(calibrations.size(), 8u);
  EXPECT_GT(calibrations[0], 0) << report;
  for (std::size_t i = 1; i < calibrations.size(); ++i) {
    EXPECT_EQ(calibrations[i], 0) << "run " << i << " recalibrated";
  }
  // The followers' tune= histograms carry cached provenance (shared
  // hits), never a cold (modeled) decision.
  EXPECT_EQ(count_occurrences(report, "\"modeled\""), 1u);
  EXPECT_EQ(count_occurrences(report, "\"cached\""), 8u);

  // One wisdom store, one generation history, valid header.
  const std::string wisdom = slurp(out + "/wisdom.jsonl");
  EXPECT_NE(wisdom.find("\"dcmesh_wisdom\":" +
                        std::to_string(dcmesh::tune::kWisdomFormatVersion)),
            std::string::npos);
  EXPECT_NE(wisdom.find("\"gen\":"), std::string::npos);
}

// Kill one run mid-campaign through the farm fault plan, then re-invoke
// the identical command without the kill: completed runs are adopted
// from the manifest (resumed, not re-executed) and only the victim runs
// again.
TEST(CampaignEndToEnd, KillOneRunThenReinvokeResumesFromManifest) {
  REQUIRE_CAMPAIGN_BINARIES();
  const std::string out = test_dir("campaign_resume");
  const std::string sweep_args =
      " --set mesh_n=8,12 --set pulse_e0=0.05,0.1"
      " --workers 2 --timeout 120 --out " + out;

  // First invocation: the farm-level fault plan SIGKILLs run-0003 as
  // soon as it spawns.  The campaign must finish the other three runs,
  // record the crash, and exit nonzero.
  const auto first =
      run("DCMESH_FARM_KILL=run-0003 " + campaign + " --driver " + dcehd +
          sweep_args);
  EXPECT_EQ(first.status, 1) << first.output;
  EXPECT_NE(first.output.find("3/4 complete"), std::string::npos)
      << first.output;

  const auto manifest = load_manifest(out + "/manifest.jsonl");
  ASSERT_TRUE(manifest.existed);
  ASSERT_EQ(manifest.entries.size(), 4u);
  const auto* victim = manifest.find("run-0003");
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->status, "crashed");
  EXPECT_EQ(victim->exit_code, -SIGKILL);

  // Second invocation, same command, no kill plan: three runs resume
  // from the manifest, the victim is retried, everything completes.
  const auto second = run(campaign + " --driver " + dcehd + sweep_args);
  ASSERT_EQ(second.status, 0) << second.output;
  EXPECT_NE(second.output.find("4/4 complete (3 resumed"), std::string::npos)
      << second.output;
  EXPECT_NE(second.output.find("already complete (resumed)"),
            std::string::npos)
      << second.output;

  const std::string report = slurp(out + "/BENCH_campaign.json");
  EXPECT_EQ(count_occurrences(report, "\"status\": \"ok\""), 4u);
  EXPECT_EQ(count_occurrences(report, "\"resumed\": true"), 3u);
  EXPECT_EQ(count_occurrences(report, "\"resumed\": false"), 1u);

  const auto after = load_manifest(out + "/manifest.jsonl");
  const auto* retried = after.find("run-0003");
  ASSERT_NE(retried, nullptr);
  EXPECT_TRUE(retried->completed());
}

// A timed-out run is killed, recorded as "timed-out", and retried on the
// next invocation like any other failure.
TEST(CampaignEndToEnd, TimedOutRunIsKilledAndRecorded) {
  REQUIRE_CAMPAIGN_BINARIES();
  const std::string out = test_dir("campaign_timeout");

  // A sub-millisecond budget times out even the tiny preset.
  const auto result = run(campaign + " --driver " + dcehd +
                          " --set mesh_n=8 --workers 1 --timeout 0.001"
                          " --no-scout --out " + out);
  EXPECT_EQ(result.status, 1) << result.output;

  const auto manifest = load_manifest(out + "/manifest.jsonl");
  const auto* entry = manifest.find("run-0000");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->status, "timed-out");
  const std::string report = slurp(out + "/BENCH_campaign.json");
  EXPECT_NE(report.find("\"status\": \"timed-out\""), std::string::npos);
}

// Driver usage errors (a deck the driver rejects at startup) surface as
// "unrecovered", not a hang or a crash of the farm itself.
TEST(CampaignEndToEnd, MissingDriverFailsSetupNotSilently) {
  REQUIRE_CAMPAIGN_BINARIES();
  const std::string out = test_dir("campaign_nodriver");
  const auto result = run(campaign +
                          " --driver /nonexistent-dcmesh/dcehd"
                          " --set mesh_n=8 --out " + out);
  EXPECT_NE(result.status, 0);
}

}  // namespace
}  // namespace dcmesh::farm
