#pragma once
// signal_flush.hpp — best-effort trace flush on SIGTERM/SIGINT.
//
// Long campaigns killed by a batch scheduler die by SIGTERM, which skips
// the tracer's atexit flush — two days of spans lost.  Opting in with
// DCMESH_TRACE_FLUSH_ON_SIGNAL=1 installs handlers for SIGTERM and SIGINT
// that write the Chrome trace to the DCMESH_TRACE_JSON path, then restore
// the default disposition and re-raise, so the process still dies by the
// signal (exit status preserved for the scheduler).
//
// The flush is deliberately best-effort: writing a file is not
// async-signal-safe, and a signal landing inside a tracer mutex can
// deadlock the dying process — acceptable for an opt-in last-gasp dump,
// never the default.

#include <string_view>

namespace dcmesh::trace {

/// Opt-in environment variable; a switch (0|1|on|off|true|false|yes|no)
/// that, when on, installs the handlers as the tracer singleton is first
/// constructed.
inline constexpr std::string_view kTraceFlushOnSignalEnvVar =
    "DCMESH_TRACE_FLUSH_ON_SIGNAL";

/// Install the SIGTERM/SIGINT flush handlers now.  Idempotent; chains
/// nothing (the previous disposition is replaced).
void install_signal_flush();

/// Install the handlers iff DCMESH_TRACE_FLUSH_ON_SIGNAL is on.  Returns
/// whether they are installed after the call.
bool install_signal_flush_from_env();

/// True once install_signal_flush() has run in this process.
[[nodiscard]] bool signal_flush_installed() noexcept;

}  // namespace dcmesh::trace
