#pragma once
// tracer.hpp — thread-safe span tracer with Chrome trace-event export.
//
// The paper reads its whole-application numbers off unitrace's per-kernel
// timeline; this is the reproduction's equivalent observability layer.  A
// `span` is an RAII interval: construction stamps the start, destruction
// stamps the duration and appends one complete ("ph":"X") event to the
// calling thread's buffer.  Buffers are strictly per-thread (the owning
// thread appends under an uncontended mutex; only a flush from another
// thread ever contends), so tracing adds no cross-thread synchronization
// to hot paths.  A flush merges all buffers into the Chrome trace-event
// JSON format that about:tracing and Perfetto load directly.
//
// Activation: the tracer is on when the DCMESH_TRACE_JSON environment
// variable names an output file (an atexit hook then writes the trace
// there) or after set_enabled(true).  When off, spans are no-ops — the
// only cost is one enabled() check — so the legacy unitrace report is
// byte-for-byte what it was before this subsystem existed.
//
// Spans may be annotated with args (rendered into the event's "args"
// object).  GEMM spans additionally carry the xehpc roofline model's
// predicted device time when a model has been installed through
// set_gemm_time_model() — trace cannot depend on xehpc (or blas), so the
// model arrives as an opaque callback over plain scalars.
//
// The stderr sink lives here too: write_verbose_line() prints every
// MKL_VERBOSE call line and DCMESH_RESIL health line, so the DCMESH_CONFIG
// line can lead whichever comes first.

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dcmesh::trace {

/// Environment variable naming the Chrome trace output file.  When set,
/// tracing is enabled and the trace is written there at process exit (and
/// on explicit flush_to_env_path()).
inline constexpr std::string_view kTraceJsonEnvVar = "DCMESH_TRACE_JSON";

/// One completed span, ready for export.
struct trace_event {
  std::string name;        ///< Event name (kernel / call-site tag).
  std::string category;    ///< Chrome "cat" field ("step", "gemm", ...).
  std::uint64_t ts_ns = 0;   ///< Start, nanoseconds since tracer epoch.
  std::uint64_t dur_ns = 0;  ///< Duration in nanoseconds.
  std::uint32_t tid = 0;     ///< Stable per-thread id (registration order).
  /// Pre-rendered JSON members for the "args" object, comma-separated,
  /// without the surrounding braces; empty = no args.
  std::string args_json;
};

/// The process-wide trace collector.  All methods are thread-safe.
class tracer {
 public:
  /// The singleton.  First call fixes the trace epoch.
  static tracer& instance();

  /// True when DCMESH_TRACE_JSON is set or set_enabled(true) was called.
  [[nodiscard]] bool enabled() const;

  /// Programmatically force tracing on/off (tests; overrides nothing —
  /// the env var keeps enabling independently).
  void set_enabled(bool on);

  /// Monotonic nanoseconds since the tracer epoch.
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Nanoseconds from the tracer epoch to `t` (0 for a time before it).
  [[nodiscard]] std::uint64_t ns_at(
      std::chrono::steady_clock::time_point t) const;

  /// Append one completed event to the calling thread's buffer.
  void record(trace_event event);

  /// record() one event built from its parts: the one emitter behind
  /// BLAS call spans and health instants (dur_ns 0).  Callers check
  /// enabled() first, so a silent run renders no args.
  void emit(std::string_view name, std::string_view category,
            std::uint64_t ts_ns, std::uint64_t dur_ns, std::string args_json);

  /// Merged copy of all buffers (per-thread order preserved).
  [[nodiscard]] std::vector<trace_event> snapshot() const;

  /// Number of buffered events across all threads.
  [[nodiscard]] std::size_t event_count() const;

  /// Events dropped because a thread buffer hit its cap.
  [[nodiscard]] std::uint64_t dropped_count() const;

  /// Render the Chrome trace-event JSON document ("traceEvents" array of
  /// "ph":"X" complete events; ts/dur in microseconds).
  [[nodiscard]] std::string to_chrome_json() const;

  /// Write to_chrome_json() to `path`; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

  /// Write the trace to the file DCMESH_TRACE_JSON names; false when the
  /// variable is unset or the write fails.
  bool flush_to_env_path() const;

  /// Drop all buffered events (buffers stay registered).
  void clear();

 private:
  tracer();
  struct impl;
  impl* impl_;
};

/// RAII span: records one complete event on destruction.  A span created
/// while the tracer is disabled is inert: its name and category are
/// copied only when the tracer is on, so it allocates nothing.
class span {
 public:
  explicit span(std::string_view name, std::string_view category = "dcmesh");
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

  /// True when this span will record (tracer was enabled at creation).
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Attach an arg (shown under "args" in the trace viewer).
  void arg(std::string_view key, std::string_view value);
  void arg(std::string_view key, double value);
  void arg(std::string_view key, std::int64_t value);

 private:
  bool active_;
  trace_event event_;
};

/// Shape/precision of one GEMM call as seen by the time-model hook.
struct gemm_model_query {
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  bool is_complex = false;
  bool is_fp64 = false;
  std::string_view mode_token;  ///< MKL_BLAS_COMPUTE_MODE token.
};

/// Install the predicted-device-time model GEMM spans are annotated with
/// (seconds; negative = no prediction).  xehpc::install_trace_gemm_model()
/// points this at the roofline model.  An empty function uninstalls.
void set_gemm_time_model(std::function<double(const gemm_model_query&)> fn);

/// Evaluate the installed model; negative when none is installed.
[[nodiscard]] double predicted_gemm_seconds(const gemm_model_query& query);

/// True when MKL_VERBOSE >= 1: BLAS-call and health lines go to stderr.
[[nodiscard]] bool verbose_enabled();

/// Print `line` to stderr, the process's first such line preceded by the
/// DCMESH_CONFIG line (set_config_line).  The one writer of MKL_VERBOSE and
/// DCMESH_RESIL lines; callers check verbose_enabled() first.  Thread-safe.
void write_verbose_line(std::string_view line);

/// Install the renderer of the DCMESH_CONFIG line.  blas installs its
/// config_line() at load: the policy, fault-plan and sched grammars it
/// renders with live above this layer.
void set_config_line(std::string (*render)());

/// Append `s` to `out` with JSON string escaping (no surrounding quotes).
void append_json_escaped(std::string& out, std::string_view s);

/// Value of `"field":"..."` on one JSON line (\n, \t and quoted
/// characters unescaped); nullopt when absent or unterminated.
[[nodiscard]] std::optional<std::string> json_string_field(
    std::string_view line, std::string_view field);

/// Value of `"field":<number>` on one JSON line; nullopt when absent.
[[nodiscard]] std::optional<double> json_number_field(std::string_view line,
                                                      std::string_view field);

}  // namespace dcmesh::trace
