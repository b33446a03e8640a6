#pragma once
// wisdom.hpp — persistent autotuning wisdom (versioned JSONL).
//
// A wisdom file (named by DCMESH_TUNE_CACHE) records every mode decision
// the autotuner has made, one JSON object per line, preceded by a header
// line naming the file-format version and the kernel generation the
// decisions were made on.  A second run loads the file and resolves every
// known (routine, site, shape-class, budget) key with zero recalibration;
// a file written by an older kernel generation — whose error profile and
// decision procedure no longer apply — is rejected whole, cleanly, and
// rebuilt.
//
// Concurrency (the campaign-farm contract): the file is a SHARED store.
// All writes go through merge_wisdom() — a read-modify-merge critical
// section under an advisory flock on a ".lock" sidecar, finished by the
// usual temp+fsync+rename replacement — so N worker processes can write
// without ever losing each other's entries.  The header carries a
// monotonic generation counter that every merge increments, and each
// entry records the generation it was written at; a merge replaces an
// existing key only when the incoming entry carries an equal-or-newer
// generation (i.e. its writer had already observed the published entry
// and deliberately overrides it — last writer in generation time wins).
// A fresh cold-key decision carries generation 0 ("never saw the
// file") and therefore only ever FILLS ABSENT keys: once a key is
// published, every sharer converges on that decision.  Individual
// malformed lines (torn writes, hand edits) are skipped and counted,
// never fatal.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dcmesh {
class file_lock;
}

namespace dcmesh::tune {

/// Bump when the wisdom line layout changes incompatibly.  v3 dropped the
/// per-entry host-throughput, provenance and ABFT-overhead fields.
inline constexpr int kWisdomFormatVersion = 3;

/// Identity of the kernel generation decisions are valid for.  Bump when
/// the blocked kernels (or the calibration procedure) change enough that
/// stored decisions are no longer comparable.  v3: modes are ranked by the
/// xehpc roofline alone, never by host time.
inline constexpr std::string_view kKernelVersion = "minimkl-blocked-v3";

/// Shape class: each GEMM dimension bucketed to its power-of-two bracket
/// (bit width of the value), so near-identical shapes share one decision
/// and the wisdom file stays small.
struct shape_class {
  int m_bits = 0;
  int n_bits = 0;
  int k_bits = 0;

  /// Compact form used in keys and wisdom lines, e.g. "m4n4k10".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const shape_class& a,
                         const shape_class& b) noexcept {
    return a.m_bits == b.m_bits && a.n_bits == b.n_bits &&
           a.k_bits == b.k_bits;
  }
};

/// Classify a shape (dims clamped to >= 1 before bucketing).
[[nodiscard]] shape_class classify_shape(std::int64_t m, std::int64_t n,
                                         std::int64_t k) noexcept;

/// One wisdom entry: the decision for one (routine, site, class, budget).
struct wisdom_entry {
  std::string routine;      ///< "SGEMM", "CGEMM", ...
  std::string site;         ///< Call-site tag ("" = untagged).
  shape_class cls;
  double ulp_budget = 0.0;  ///< Error budget the decision was made under.
  std::string mode_token;   ///< Chosen mode (MKL_BLAS_COMPUTE_MODE token).
  double err_ulp = 0.0;     ///< Measured componentwise error, storage ULPs.
  /// Store generation this entry was written at.  0 = never published
  /// (a fresh in-memory decision); merge_wisdom stamps the file value.
  std::uint64_t generation = 0;

  [[nodiscard]] std::string key() const;      ///< Lookup key (see below).
  [[nodiscard]] std::string to_json() const;  ///< One JSONL line.
};

/// The lookup key entries are deduplicated on.
[[nodiscard]] std::string wisdom_key(std::string_view routine,
                                     std::string_view site, shape_class cls,
                                     double ulp_budget);

/// The header line a valid wisdom file must start with.  `generation` is
/// the store's monotonic merge counter (0 for a brand-new file).
[[nodiscard]] std::string wisdom_header(std::uint64_t generation = 0);

/// True when `line` is a header this build accepts (format version AND
/// kernel version both match).
[[nodiscard]] bool wisdom_header_ok(std::string_view line);

/// Parse one wisdom line; nullopt on malformed input.
[[nodiscard]] std::optional<wisdom_entry> parse_wisdom_line(
    std::string_view line);

/// Result of loading a wisdom file.
struct wisdom_file {
  std::vector<wisdom_entry> entries;  ///< One entry per key (highest
                                      ///< generation wins), file order.
  std::uint64_t generation = 0;  ///< Store generation from the header.
  bool existed = false;       ///< File was present and readable.
  bool version_ok = true;     ///< Header matched (false = stale/corrupt;
                              ///< entries is empty in that case).
  std::size_t rejected_lines = 0;  ///< Malformed non-header lines skipped.
};

/// Load `path`; never throws.  A missing file is {existed=false}.
[[nodiscard]] wisdom_file load_wisdom(const std::string& path);

/// Rewrite `path` as header + entries.  False on I/O failure.  This is
/// the raw rewrite primitive; concurrent writers must go through
/// merge_wisdom instead.
bool save_wisdom(const std::string& path,
                 const std::vector<wisdom_entry>& entries,
                 std::uint64_t generation = 0);

/// Read just the store generation from `path`'s header without parsing
/// the entries — the cheap "did a sibling publish since I last looked?"
/// probe.  nullopt when the file is missing or its header is not ours.
[[nodiscard]] std::optional<std::uint64_t> peek_wisdom_generation(
    const std::string& path);

/// Outcome of one merge_wisdom critical section.
struct merge_result {
  bool ok = false;           ///< Final file state reflects the merge.
  std::uint64_t generation = 0;  ///< Store generation after the merge.
  std::size_t added = 0;     ///< Incoming entries that won their key.
  std::size_t kept = 0;      ///< Incoming entries dropped because the
                             ///< store already had a same-or-newer entry.
};

/// The ONE write path for shared wisdom stores: under an exclusive flock
/// on `path` + ".lock", reload the file, fold `incoming` in (an entry
/// replaces an existing key only when its generation is >= the stored
/// one and nonzero; generation-0 entries fill absent keys only), bump
/// the store generation, and atomically rewrite.  A stale or corrupt
/// file is treated as empty and rebuilt.  When the caller already holds
/// the lock (e.g. it decided a cold key under it), pass it as `held` to avoid
/// self-deadlock on a second acquisition.  Never throws.
merge_result merge_wisdom(const std::string& path,
                          const std::vector<wisdom_entry>& incoming,
                          const file_lock* held = nullptr);

}  // namespace dcmesh::tune
