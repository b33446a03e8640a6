#pragma once
// runner.hpp — the campaign worker pool: fork/exec sharding with per-run
// timeouts, a shared wisdom store, and manifest-driven resume.
//
// run_campaign() takes the expanded run matrix and drives it to
// completion over a bounded pool of worker processes.  Each run becomes
// one fork/exec of the driver binary (dcehd or compatible: argv[1] is a
// run-deck path, exit 0 = success) with its own output directory
// (runs/<id>/ under the campaign directory: deck.in, stdout.log,
// stderr.log, verbose.jsonl) and its own environment — the run's sweep
// env axes, plus DCMESH_TUNE_CACHE pointed at the campaign's ONE shared
// wisdom store and MKL_VERBOSE_JSON at the run's private JSONL stream.
//
// Worker lifecycle per run:
//   spawn    fork; child redirects stdout/stderr, applies env, execs
//   poll     parent sweeps the pool (waitpid WNOHANG, ~20 ms cadence)
//   reap     exit 0 -> "ok"; nonzero exit -> "unrecovered" (the driver
//            exits 1 when resilience gives up); killed by a signal ->
//            "crashed"; past the per-run timeout -> SIGKILL +
//            "timed-out"
//   record   the verbose stream is folded into per-run counters
//            (calibration GEMMs, tune= and health= histograms), the
//            manifest gains a checksummed line, and the aggregate
//            report is atomically rewritten — after EVERY run, so a
//            killed campaign leaves a valid partial report behind.
//
// Cold scout: when the wisdom store does not exist yet, the first run
// executes alone before the pool fans out.  The store stays correct
// without it (misses calibrate under the store flock), but the scout
// converts N workers serializing on one lock into one worker warming
// the store for all — the "pay cold-start once" fast path.
//
// DCMESH_FARM_KILL=<glob>:<seconds> is the farm-level fault plan: the
// parent SIGKILLs the first run whose id or tag matches the glob after
// it has been alive that long, recording "crashed".  This is how tests
// and CI rehearse the kill-one-worker-and-resume story
// deterministically; it is intentionally NOT inherited by the retry
// after resume (the env var simply isn't set on the second invocation).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dcmesh/farm/sweep.hpp"

namespace dcmesh::farm {

/// DCMESH_FARM_KILL, the farm-level fault plan (see above).
struct kill_plan {
  std::string glob;            ///< Matched against run ids and tags.
  double after_seconds = 0.0;  ///< Alive this long before the SIGKILL.
};

/// DCMESH_FARM_KILL grammar, "<glob>[:<seconds>]"; nullopt when malformed.
[[nodiscard]] std::optional<kill_plan> parse_kill_plan(std::string_view text);

struct runner_options {
  std::string driver;        ///< Driver binary (dcehd-compatible).
  std::string out_dir;       ///< Campaign directory (created if absent).
  std::string wisdom;        ///< Shared store ("" = out_dir/wisdom.jsonl).
  std::string report;        ///< Report ("" = out_dir/BENCH_campaign.json).
  int workers = 2;           ///< Worker pool bound (>= 1).
  double timeout_seconds = 300.0;  ///< Per-run wall-time budget.
  bool cold_scout = true;    ///< First run alone when the store is cold.
  bool quiet = false;        ///< Suppress per-run progress on stderr.
};

/// Counters folded out of one run's MKL_VERBOSE_JSON stream.
struct run_counters {
  std::uint64_t gemm_records = 0;       ///< Verbose records seen.
  std::uint64_t calibration_gemms = 0;  ///< site == "tune/calibrate".
  std::map<std::string, std::uint64_t> tune;    ///< tune= provenance.
  std::map<std::string, std::uint64_t> health;  ///< health= verdicts.
};

/// One run's outcome in this invocation.
struct run_outcome {
  campaign_run run;
  std::string status;   ///< "ok" | "unrecovered" | "crashed" | "timed-out".
  bool resumed = false; ///< Completed by a PREVIOUS invocation; skipped.
  int exit_code = 0;    ///< Exit status, or -signal when killed.
  double seconds = 0.0;
  run_counters counters;
};

struct campaign_result {
  std::vector<run_outcome> outcomes;  ///< Matrix order.
  std::size_t completed = 0;  ///< status == "ok", including resumed.
  std::size_t failed = 0;
  std::size_t resumed = 0;

  [[nodiscard]] bool ok() const noexcept { return failed == 0; }
};

/// Parse one run's verbose JSONL stream into counters (missing file =
/// all zeros; exposed for tests and the report's resume path).
[[nodiscard]] run_counters parse_run_counters(const std::string& path);

/// Drive the matrix to completion.  Never throws on run failures (they
/// land in the result); throws std::runtime_error only when the campaign
/// itself cannot be set up (unusable output directory or driver).
campaign_result run_campaign(const std::vector<campaign_run>& runs,
                             const runner_options& options);

}  // namespace dcmesh::farm
