#pragma once
// site_identity.hpp — return-address call-site naming for the
// interposition shim.
//
// The policy engine, metrics registry, and wisdom cache all key on a
// call-site tag, which in-tree callers provide by hand.  An unmodified
// third-party binary cannot: its identity must be DERIVED.  Each
// interposed entry point captures __builtin_return_address(0) — the
// instruction after the call in the application — and this module turns
// that address into a stable, cached tag:
//
//   addr   (default)  "intercept/<module>+0x<offset>"  — the return
//                     address relative to its module's load base
//                     (dladdr), so the tag survives ASLR and is identical
//                     run to run: wisdom stays warm across processes.
//   symbol            "intercept/<module>:<function>" — all call sites
//                     inside one function share a tag (dladdr
//                     symbolization; falls back to addr form when the
//                     symbol is not exported).
//   single            "intercept/app" — one tag for the whole process,
//                     the coarse "just give everything one policy" knob.
//
// selected by DCMESH_INTERCEPT_SITE_MODE.  The three shim variables are
// knobs (knobs.hpp): malformed values warn ONCE per value to stderr and
// fall back to the default; nothing ever throws on the interposed path.

#include <string_view>

namespace dcmesh::intercept {

enum class site_mode { addr, symbol, single };

/// Display name: "addr", "symbol", "single".
[[nodiscard]] const char* name(site_mode mode) noexcept;

/// Mode requested by DCMESH_INTERCEPT_SITE_MODE (a cached knob; malformed
/// values warn once and yield addr).
[[nodiscard]] site_mode active_site_mode();

/// Stable site tag for `return_address` under the active mode.  The
/// returned pointer stays valid for the process lifetime (entries are
/// cached and never evicted), so it can be handed to the descriptor API
/// as a borrowed string.  Thread-safe.
[[nodiscard]] const char* site_for(void* return_address);

/// DCMESH_INTERCEPT_AUTOTUNE: install the autotuner at shim load so AUTO
/// policy rules work under pure LD_PRELOAD (default on).  Accepts
/// 0/1/on/off/true/false/yes/no, case-insensitive; malformed values warn
/// once and yield the default.
[[nodiscard]] bool autotune_enabled();

/// DCMESH_INTERCEPT_CHAIN: forward interposed calls to the next BLAS in
/// the link chain (dlsym(RTLD_NEXT)) instead of the dcmesh engine —
/// the zero-rebuild baseline for A/B runs against the system BLAS
/// (default off).  Same 0/1/on/off/... parsing as autotune_enabled().
[[nodiscard]] bool chain_enabled();

/// Every derived tag starts with this, so one glob ("intercept/*")
/// addresses all interposed calls in a policy.
inline constexpr std::string_view kSitePrefix = "intercept/";

}  // namespace dcmesh::intercept
