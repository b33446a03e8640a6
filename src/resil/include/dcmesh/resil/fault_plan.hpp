#pragma once
// fault_plan.hpp — deterministic, seeded GEMM fault injection.
//
// The paper's accuracy campaigns run for days with reduced-precision BLAS
// sitting deliberately close to the acceptable-error edge; a single silent
// bit flip or NaN mid-trajectory poisons the whole run.  Before trusting
// the health sentinel (health.hpp) and the rollback-and-promote recovery
// (core::driver) we must be able to *prove* they catch faults — which
// needs reproducible faults.  This engine perturbs GEMM results at the
// dispatch choke point (src/blas/src/gemm_dispatch.cpp) according to a
// plan from the DCMESH_FAULT_PLAN environment variable:
//
//   plan := rule (';' rule)*            (',' is also accepted)
//   rule := site-glob ':' call# ':' kind [':' param [':' hits]]
//   call# := <n>                        the n-th matching call (0-based)
//          | '*'                        every matching call
//   kind  := 'bitflip'                  flip one mantissa/exponent bit of C
//                                       (param = bit index; random if absent)
//          | 'bitflip_a'                flip one bit of one element of op(A)
//          | 'bitflip_b'                flip one bit of one element of op(B)
//                                       (input-space kinds: the corruption
//                                       feeds the kernel, so the damage is
//                                       finite-but-wrong arithmetic — the
//                                       exact fault class only the ABFT
//                                       checksums can see)
//          | 'nan'                      overwrite one element with quiet NaN
//          | 'inf'                      overwrite one element with +infinity
//          | 'scale'                    multiply all of C by param
//                                       (default 1024 — a blown exponent
//                                       that stays finite, exercising the
//                                       step-level invariants rather than
//                                       the per-call finite scan)
//   hits  := <n>                        elements to corrupt per firing
//                                       (default 1; element kinds only)
//
// Example: "lfd/calc_energy/*:5:nan;lfd/remap_occ/*:2:bitflip:12".
// Site globs reuse the policy grammar's '*'/'?' matching.  Element and bit
// choices are drawn from a xoshiro256 stream seeded by (DCMESH_FAULT_SEED,
// rule index, occurrence index), so a plan replays identically across runs
// — and a recovery re-run of the same GEMM is NOT re-perturbed, because
// the rule's occurrence counter has already advanced (one fault per
// matching call, exactly like a transient hardware upset).
//
// A malformed plan warns once to stderr and disables injection (it never
// throws from the hot path); parse_fault_plan() throws for programmatic
// callers who want the error.  With no plan installed the per-call check
// is one cached knob read that reduces to a no-op.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dcmesh/common/env.hpp"

namespace dcmesh::resil {

/// What an injected fault does to the GEMM call.
enum class fault_kind {
  bitflip,    ///< XOR one bit of one element of C (real part).
  bitflip_a,  ///< XOR one bit of one element of op(A) before the kernel.
  bitflip_b,  ///< XOR one bit of one element of op(B) before the kernel.
  nan_value,  ///< Overwrite one element of C with a quiet NaN.
  inf_value,  ///< Overwrite one element of C with +infinity.
  scale,      ///< Multiply every element of C by the rule's param.
};

/// Grammar token of a fault kind, e.g. "bitflip".
[[nodiscard]] std::string_view name(fault_kind kind) noexcept;

/// Input-space kinds corrupt the operands the kernel consumes rather
/// than the result it produced.
[[nodiscard]] constexpr bool is_input_fault(fault_kind kind) noexcept {
  return kind == fault_kind::bitflip_a || kind == fault_kind::bitflip_b;
}

/// One parsed plan rule.
struct fault_rule {
  std::string pattern;            ///< Site glob ('*' and '?').
  std::int64_t call_index = 0;    ///< n-th matching call; -1 = every call.
  fault_kind kind = fault_kind::nan_value;
  std::optional<double> param;    ///< bit index (bitflip*) / factor (scale).
  std::int64_t hits = 1;          ///< Elements corrupted per firing.
};

/// An ordered list of rules; the first rule that fires wins for a call.
struct fault_plan {
  std::vector<fault_rule> rules;
  [[nodiscard]] bool empty() const noexcept { return rules.empty(); }
};

/// Parse plan text per the grammar above.  Throws std::invalid_argument
/// naming the offending rule (missing field, unknown kind, bad call#).
[[nodiscard]] fault_plan parse_fault_plan(std::string_view text);

/// A fault that should be applied to the current call.
struct fault_hit {
  fault_kind kind = fault_kind::nan_value;
  std::optional<double> param;    ///< From the rule; kind-specific.
  std::uint64_t pick0 = 0;        ///< Deterministic draw (element choice).
  std::uint64_t pick1 = 0;        ///< Deterministic draw (bit choice).
  int rule = 0;                   ///< Index of the rule that fired.
  std::int64_t occurrence = 0;    ///< Which matching call this was.
  std::int64_t hits = 1;          ///< Elements to corrupt this firing.
  std::uint64_t draw_seed = 0;    ///< Stream seed: re-derive further draws
                                  ///< for multi-hit application (pick0 and
                                  ///< pick1 are the stream's first two).
};

/// Ask whether the active plan injects into this call.  Advances the
/// per-rule occurrence counters for every matching rule (so rules with a
/// fixed call# are one-shot), returns the first rule that fires.  Cheap
/// (one cached knob read) when no plan is installed.  Thread-safe;
/// deterministic for the serial call order of the driver loop.
[[nodiscard]] std::optional<fault_hit> next_fault(std::string_view site);

/// Install a plan programmatically (overrides DCMESH_FAULT_PLAN until
/// reset with std::nullopt).  Resets the occurrence counters.
void set_fault_plan(std::optional<fault_plan> plan);

/// Zero the occurrence counters and injection tally, and force the next
/// query to re-arm from DCMESH_FAULT_PLAN (tests flip it with env_set).
void reset_fault_state();

/// Total faults injected (next_fault() hits) since the last reset.
[[nodiscard]] std::uint64_t injection_count();

/// Glob matcher over site tags, shared with the policy engine.
using dcmesh::glob_match;

/// Environment variable holding the plan text.
inline constexpr std::string_view kFaultPlanEnvVar = "DCMESH_FAULT_PLAN";

/// Environment variable seeding the deterministic draws (default 0x5eed).
inline constexpr std::string_view kFaultSeedEnvVar = "DCMESH_FAULT_SEED";

}  // namespace dcmesh::resil
