// Tests for the SHARED wisdom store: the flock + merge-on-write protocol
// that lets N worker processes calibrate against one JSONL file without
// losing each other's entries.  Covers the generation counter semantics
// (monotonic stamping, no-change merges not burning a generation,
// last-writer-wins only for republished entries), peek_wisdom_generation,
// held-lock passthrough, a genuinely forked N-writer merge storm, and the
// campaign-farm acceptance contract: eight forked autotuner processes
// sharing one store perform each key's calibration in AT MOST one process.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dcmesh/blas/gemm_call.hpp"
#include "dcmesh/common/env.hpp"
#include "dcmesh/common/file_lock.hpp"
#include "dcmesh/trace/metrics.hpp"
#include "dcmesh/tune/autotuner.hpp"
#include "dcmesh/tune/wisdom.hpp"

namespace dcmesh::tune {
namespace {

class WisdomStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { trace::clear_gemm_metrics(); }

  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + name;
  }

  static wisdom_entry entry(std::string site, std::string mode,
                            std::uint64_t generation = 0) {
    wisdom_entry e;
    e.routine = "SGEMM";
    e.site = std::move(site);
    e.cls = classify_shape(128, 128, 128);
    e.ulp_budget = 1024.0;
    e.mode_token = std::move(mode);
    e.err_ulp = 1.0;
    e.generation = generation;
    return e;
  }

  static blas::auto_tune_request sgemm_request(std::string_view site,
                                               blas::blas_int m,
                                               blas::blas_int n,
                                               blas::blas_int k) {
    return {site, "SGEMM", m, n, k, /*is_complex=*/false,
            /*is_fp64=*/false, /*ulp_budget=*/0.0};
  }
};

// -------------------------------------------------- generation counter ---

TEST_F(WisdomStoreTest, MergeStampsMonotonicGenerations) {
  const std::string path = temp_path("store_gen.jsonl");
  std::remove(path.c_str());

  const auto first = merge_wisdom(path, {entry("g/a", "STANDARD")});
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.generation, 1u);
  EXPECT_EQ(first.added, 1u);
  EXPECT_EQ(first.kept, 0u);

  const auto second = merge_wisdom(path, {entry("g/b", "STANDARD")});
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.generation, 2u);

  const auto peeked = peek_wisdom_generation(path);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(*peeked, 2u);

  // Both entries survived, each stamped with the generation that
  // published it.
  const auto file = load_wisdom(path);
  ASSERT_EQ(file.entries.size(), 2u);
  EXPECT_EQ(file.generation, 2u);
  std::remove(path.c_str());
}

TEST_F(WisdomStoreTest, NoChangeMergeDoesNotBurnAGeneration) {
  const std::string path = temp_path("store_nochange.jsonl");
  std::remove(path.c_str());
  (void)merge_wisdom(path, {entry("g/a", "STANDARD")});

  // Re-merging an already-present fresh (gen-0) entry changes nothing,
  // so the file is not rewritten and the generation does not advance —
  // a warm fleet polling the store sees a quiescent counter.
  const auto again = merge_wisdom(path, {entry("g/a", "FLOAT_TO_BF16X3")});
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.generation, 1u);
  EXPECT_EQ(again.added, 0u);
  EXPECT_EQ(again.kept, 1u);
  EXPECT_EQ(peek_wisdom_generation(path).value_or(99), 1u);
  // ... and the incumbent decision was NOT clobbered.
  const auto file = load_wisdom(path);
  ASSERT_EQ(file.entries.size(), 1u);
  EXPECT_EQ(file.entries[0].mode_token, "STANDARD");
  std::remove(path.c_str());
}

TEST_F(WisdomStoreTest, RepublishedEntryWinsOverIncumbent) {
  const std::string path = temp_path("store_republish.jsonl");
  std::remove(path.c_str());
  (void)merge_wisdom(path, {entry("g/a", "STANDARD")});  // published gen 1

  // An entry republished WITH a generation at least the incumbent's is a
  // deliberate overwrite (last writer wins) and advances the counter.
  const auto merged = merge_wisdom(path, {entry("g/a", "COMPLEX_3M", 1)});
  ASSERT_TRUE(merged.ok);
  EXPECT_EQ(merged.generation, 2u);
  EXPECT_EQ(merged.added, 1u);
  const auto file = load_wisdom(path);
  ASSERT_EQ(file.entries.size(), 1u);
  EXPECT_EQ(file.entries[0].mode_token, "COMPLEX_3M");
  EXPECT_EQ(file.entries[0].generation, 2u);
  std::remove(path.c_str());
}

TEST_F(WisdomStoreTest, PeekGenerationHandlesMissingAndGarbageFiles) {
  EXPECT_FALSE(peek_wisdom_generation("").has_value());
  EXPECT_FALSE(
      peek_wisdom_generation("/nonexistent-dcmesh/wisdom.jsonl").has_value());

  const std::string path = temp_path("store_peek_garbage.jsonl");
  {
    std::ofstream os(path, std::ios::trunc);
    os << "not a wisdom header\n";
  }
  EXPECT_FALSE(peek_wisdom_generation(path).has_value());

  // A valid pre-generation header (older writer) reads as generation 0.
  {
    std::ofstream os(path, std::ios::trunc);
    os << wisdom_header() << "\n";
  }
  EXPECT_EQ(peek_wisdom_generation(path).value_or(99), 0u);
  std::remove(path.c_str());
}

TEST_F(WisdomStoreTest, MergeUnderAnAlreadyHeldLockDoesNotDeadlock) {
  const std::string path = temp_path("store_heldlock.jsonl");
  std::remove(path.c_str());

  // flock exclusion is per open file description, so re-locking from the
  // same process would deadlock a naive implementation.  The caller who
  // already holds the store lock passes it through instead.
  const file_lock lock(path);
  ASSERT_TRUE(lock.held());
  const auto merged = merge_wisdom(path, {entry("g/h", "STANDARD")}, &lock);
  ASSERT_TRUE(merged.ok);
  EXPECT_EQ(merged.generation, 1u);
  EXPECT_EQ(load_wisdom(path).entries.size(), 1u);
  std::remove(path.c_str());
}

TEST_F(WisdomStoreTest, CorruptStoreIsRebuiltByMerge) {
  const std::string path = temp_path("store_corrupt.jsonl");
  {
    std::ofstream os(path, std::ios::trunc);
    os << "complete garbage\n{\"also\":\"garbage\"}\n";
  }
  const auto merged = merge_wisdom(path, {entry("g/r", "STANDARD")});
  ASSERT_TRUE(merged.ok);
  EXPECT_EQ(merged.generation, 1u);
  const auto file = load_wisdom(path);
  EXPECT_TRUE(file.version_ok);
  ASSERT_EQ(file.entries.size(), 1u);
  std::remove(path.c_str());
}

// ------------------------------------------------------ forked writers ---

// The satellite regression test: N forked processes race merge_wisdom
// against one store.  Every writer's unique key must survive — the
// read-modify-merge-under-flock write path cannot lose a sibling's
// entries the way clobbering save_wisdom would.
TEST_F(WisdomStoreTest, EightForkedWritersUnionOfKeysSurvives) {
  const std::string path = temp_path("store_forked.jsonl");
  std::remove(path.c_str());
  constexpr int kWriters = 8;
  constexpr int kRounds = 4;

  std::vector<pid_t> children;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: publish kRounds unique keys plus one key contested by
      // every writer, one merge per round to maximise interleaving.
      for (int r = 0; r < kRounds; ++r) {
        const std::string site =
            "w" + std::to_string(w) + "/k" + std::to_string(r);
        const bool ok1 = merge_wisdom(path, {entry(site, "STANDARD")}).ok;
        const bool ok2 =
            merge_wisdom(path, {entry("shared/hot", "STANDARD")}).ok;
        if (!ok1 || !ok2) _exit(1);
      }
      _exit(0);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  const auto file = load_wisdom(path);
  EXPECT_TRUE(file.version_ok);
  // Union of keys: every writer's every unique key, plus the contested
  // one exactly once.
  ASSERT_EQ(file.entries.size(),
            static_cast<std::size_t>(kWriters * kRounds + 1));
  for (int w = 0; w < kWriters; ++w) {
    for (int r = 0; r < kRounds; ++r) {
      const std::string site =
          "w" + std::to_string(w) + "/k" + std::to_string(r);
      bool found = false;
      for (const auto& e : file.entries) found |= (e.site == site);
      EXPECT_TRUE(found) << "lost key " << site;
    }
  }
  // Every successful write advanced the counter: at least one write per
  // unique key, and never more than the total merge count.
  EXPECT_GE(file.generation, static_cast<std::uint64_t>(kWriters * kRounds));
  EXPECT_LE(file.generation,
            static_cast<std::uint64_t>(kWriters * kRounds * 2));
  std::remove(path.c_str());
}

// ------------------------------------------- eight-process campaign ---

// The ISSUE acceptance contract, at autotuner level: eight forked worker
// processes share one wisdom store and resolve the same four keys
// concurrently.  The calibrate-under-lock protocol guarantees each key
// is calibrated in AT MOST one process fleet-wide — everyone else takes
// a shared hit — so the summed per-process calibration count equals the
// number of distinct keys.
TEST_F(WisdomStoreTest, EightProcessCampaignCalibratesEachKeyOnce) {
  const std::string path = temp_path("store_campaign.jsonl");
  std::remove(path.c_str());
  constexpr int kWorkers = 8;
  constexpr int kKeys = 4;

  std::vector<pid_t> children;
  for (int w = 0; w < kWorkers; ++w) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child worker: resolve all four keys, starting at a different one
      // per worker so every key has a different first-arriving process.
      autotuner tuner{path};
      for (int i = 0; i < kKeys; ++i) {
        const int k = (w + i) % kKeys;
        const std::string site = "farm/key" + std::to_string(k);
        const auto choice =
            tuner.resolve(sgemm_request(site, 128, 128, 64 + 64 * k));
        if (choice.provenance == blas::auto_provenance::defaulted) _exit(2);
      }
      const auto& stats = tuner.stats();
      std::FILE* out = std::fopen(
          (path + ".stats" + std::to_string(w)).c_str(), "w");
      if (out == nullptr) _exit(3);
      std::fprintf(out, "calibrations=%llu shared_hits=%llu resolves=%llu\n",
                   static_cast<unsigned long long>(stats.calibrations),
                   static_cast<unsigned long long>(stats.shared_hits),
                   static_cast<unsigned long long>(stats.resolutions));
      std::fclose(out);
      _exit(0);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker died: status " << status;
  }

  std::uint64_t total_calibrations = 0, total_shared = 0;
  for (int w = 0; w < kWorkers; ++w) {
    const std::string stats_path = path + ".stats" + std::to_string(w);
    std::ifstream in(stats_path);
    ASSERT_TRUE(in.is_open()) << stats_path;
    unsigned long long calibrations = 0, shared = 0, resolves = 0;
    std::string line;
    std::getline(in, line);
    ASSERT_EQ(std::sscanf(line.c_str(),
                          "calibrations=%llu shared_hits=%llu resolves=%llu",
                          &calibrations, &shared, &resolves),
              3);
    total_calibrations += calibrations;
    total_shared += shared;
    std::remove(stats_path.c_str());
  }

  // The headline number: kKeys calibrations across the WHOLE fleet.
  EXPECT_EQ(total_calibrations, static_cast<std::uint64_t>(kKeys));
  // Everyone who lost the per-key race adopted the winner's decision
  // while still inside the store lock.
  EXPECT_GT(total_shared, 0u);

  // The store holds exactly the four keys ...
  const auto file = load_wisdom(path);
  EXPECT_TRUE(file.version_ok);
  EXPECT_EQ(file.entries.size(), static_cast<std::size_t>(kKeys));

  // ... and a ninth, late-starting process performs ZERO calibration
  // GEMMs: the first generation already covered every key.
  trace::clear_gemm_metrics();
  autotuner late{path};
  for (int k = 0; k < kKeys; ++k) {
    const auto choice = late.resolve(
        sgemm_request("farm/key" + std::to_string(k), 128, 128, 64 + 64 * k));
    EXPECT_EQ(choice.provenance, blas::auto_provenance::cached);
  }
  EXPECT_EQ(late.stats().calibrations, 0u);
  EXPECT_EQ(trace::gemm_metrics_for(kCalibrationSite).calls, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dcmesh::tune
