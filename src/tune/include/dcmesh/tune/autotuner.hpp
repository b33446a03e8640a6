#pragma once
// autotuner.hpp — the accuracy-aware autotuner behind the `auto` mode.
//
// The paper's central result is that the best BLAS compute mode depends on
// matrix shape and accuracy budget; its artifact picks modes by hand.  The
// autotuner makes the system pick them itself: for each (call-site,
// routine, shape-class) key it
//
//  1. runs every eligible compute mode once on deterministic sample
//     operands (seeded from the key) and measures the componentwise error
//     of each against an FP64 reference (in ULPs of the storage
//     precision);
//  2. discards modes whose error exceeds the site's ULP budget
//     (rule flag `ulp=`, else DCMESH_TUNE_ULP_BUDGET, else
//     kDefaultUlpBudget);
//  3. ranks the survivors by the xehpc roofline's modeled device time for
//     the request shape (xehpc::model_gemm with the default spec and
//     calibration); ties keep the earlier mode in the eligible order.
//     Host wall time never ranks modes — on the host the emulated modes
//     run in the reverse order of the device — so a decision is a pure
//     function of key and kernel tier, identical in every run;
//  4. records the winner in a thread-safe in-memory cache AND merges it
//     into the shared on-disk wisdom store named by DCMESH_TUNE_CACHE, so
//     the next process resolves the key with zero calibration GEMMs.
//
// With the default 1024-ULP budget every CGEMM site the LFD engine tags
// resolves to COMPLEX_3M: the roofline prices it below STANDARD and the
// BF16 splits at those shapes.
//
// The one host-timed decision is the cache blocking (MC/NC) of big real
// FP32 keys: blocking only partitions the output sweep and cannot change
// a result bit, so host time is the right judge for it.
//
// The store is safe under N concurrent worker processes (the campaign
// farm): a cache miss takes the store's advisory flock, re-reads the
// header generation, refreshes in-memory decisions when a sibling has
// published since (resolving the miss with ZERO calibration GEMMs when
// the sibling already covered the key), and otherwise calibrates while
// still holding the lock before merging the new entry in.  Cold-start is
// therefore paid at most once per key across the whole fleet.
//
// Calibration GEMMs run through the ordinary descriptor dispatcher under
// the "tune/calibrate" site tag with an explicit per-call mode override —
// they are visible in the verbose log and the metrics registry (which is
// how tests assert a warm cache performs none), and the override keeps
// them out of the policy engine, so the tuner can never recurse into
// itself.
//
// Decisions reach the dispatcher through blas::set_auto_tune_hook (see
// autotune_hook.hpp); install_auto_tuner() wires the process-wide tuner
// in, and core::driver installs it at construction.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "dcmesh/blas/autotune_hook.hpp"
#include "dcmesh/blas/compute_mode.hpp"
#include "dcmesh/tune/wisdom.hpp"

namespace dcmesh::tune {

/// Environment variable naming the persistent wisdom file.  Unset = the
/// tuner still works, in-memory only.
inline constexpr std::string_view kTuneCacheEnvVar = "DCMESH_TUNE_CACHE";

/// Environment variable overriding kDefaultUlpBudget.
inline constexpr std::string_view kUlpBudgetEnvVar =
    "DCMESH_TUNE_ULP_BUDGET";

/// Its grammar: a positive, finite number.
[[nodiscard]] std::optional<double> parse_ulp_budget(std::string_view text);

/// Default componentwise error budget, in ULPs of the storage precision.
/// On the calibration operands the modes land roughly at standard ~10,
/// BF16x3 ~5, 3M ~15, BF16x2 ~100-300, TF32 ~1e4, BF16 ~1e5 ULP; 1024
/// admits the multi-component splits and 3M and rejects single-component
/// BF16 and TF32 with an order of magnitude to spare either way — the
/// paper's Table IV accuracy ladder.
inline constexpr double kDefaultUlpBudget = 1024.0;

/// The call-site tag calibration GEMMs run under.
inline constexpr std::string_view kCalibrationSite = "tune/calibrate";

/// One mode's calibration measurements for one key.
struct mode_measurement {
  blas::compute_mode mode = blas::compute_mode::standard;
  double err_ulp = 0.0;        ///< Measured componentwise error.
  bool within_budget = false;  ///< err_ulp <= the key's budget.
};

/// Everything measured while resolving one key (kept for benches/tests).
struct calibration_record {
  std::string key;
  wisdom_entry decision;
  std::vector<mode_measurement> measurements;
};

/// Counters for one tuner instance.
struct tuner_stats {
  std::uint64_t resolutions = 0;     ///< resolve() calls.
  std::uint64_t cache_hits = 0;      ///< Served from memory (incl. file).
  std::uint64_t calibrations = 0;    ///< Cold keys (error-measured and
                                     ///< ranked by the roofline).
  std::uint64_t refreshes = 0;       ///< Store reloads after a sibling
                                     ///< process published a generation.
  std::uint64_t shared_hits = 0;     ///< Misses resolved under the store
                                     ///< lock by a sibling's fresh entry
                                     ///< (counted in cache_hits too).
  std::uint64_t blocking_probes = 0; ///< Keys whose MC/NC blocking was
                                     ///< measured (cold, big real FP32
                                     ///< keys only; warm stores stay at 0).
};

/// An online autotuner with an in-memory decision cache fronting an
/// optional on-disk wisdom file.  All methods are thread-safe; one
/// resolve (including its calibration) runs under the instance lock.
class autotuner {
 public:
  /// Follow DCMESH_TUNE_CACHE: the knob is consulted on every resolve, and
  /// a changed value resets and reloads the instance (tests and multi-run
  /// processes repoint it freely).
  autotuner();

  /// Fixed wisdom path ("" = in-memory only, no persistence).
  explicit autotuner(std::string cache_path);

  /// Decide the compute mode for one auto-resolved call.
  [[nodiscard]] blas::auto_tune_choice resolve(
      const blas::auto_tune_request& request);

  /// Snapshot of all in-memory decisions (sorted by key).
  [[nodiscard]] std::vector<wisdom_entry> decisions() const;

  /// Snapshot of the per-key calibration measurements made by THIS
  /// instance (cache hits measure nothing and do not appear).
  [[nodiscard]] std::vector<calibration_record> calibration_log() const;

  [[nodiscard]] tuner_stats stats() const;

  /// Merge the in-memory decisions into the wisdom store (read-modify-
  /// merge under the store lock — never clobbers entries published by
  /// sibling processes).  False when there is no path or the write fails.
  bool flush();

  /// Drop the in-memory state (decisions, calibration log, counters).
  /// The wisdom file is untouched; the next resolve reloads it — i.e.
  /// this makes the instance behave like a fresh process.
  void clear();

  /// The wisdom path currently in effect ("" = none).
  [[nodiscard]] std::string cache_path() const;

 private:
  struct state;
  void reload_if_needed(state& s);
  bool refresh_from_store(state& s);
  blas::auto_tune_choice decide(state& s,
                                const blas::auto_tune_request& request);

  mutable std::mutex mutex_;
  struct state {
    bool follow_env = false;
    std::string path;            // wisdom file ("" = none)
    bool loaded = false;         // file has been read into `decisions`
    bool persist_warned = false; // unwritable-path warning emitted
    std::uint64_t file_generation = 0;  // store generation last seen
    std::map<std::string, wisdom_entry> decisions;
    std::vector<calibration_record> log;
    tuner_stats stats;
  } state_;
};

/// The process-wide tuner (follows DCMESH_TUNE_CACHE).
[[nodiscard]] autotuner& default_tuner();

/// Point blas::set_auto_tune_hook at default_tuner().  Idempotent; called
/// by core::driver at construction so `auto` policies work in any run.
void install_auto_tuner();

}  // namespace dcmesh::tune
