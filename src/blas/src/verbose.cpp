#include "dcmesh/blas/verbose.hpp"

#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/resil/fault_plan.hpp"
#include "dcmesh/sched/config.hpp"
#include "dcmesh/trace/metrics.hpp"
#include "dcmesh/trace/tracer.hpp"
#include "dispatch_internal.hpp"

namespace dcmesh::blas {
namespace {

/// A record's shape as the roofline model reads it, complex and fp64 taken
/// from the routine's BLAS prefix letter (S, D, C, Z).
trace::gemm_model_query model_query(const call_record& record) {
  const char type = record.routine.empty() ? 'S' : record.routine.front();
  return {record.m, record.n, record.k, type == 'C' || type == 'Z',
          type == 'D' || type == 'Z', info(record.mode).env_token};
}

constexpr std::size_t kMaxLogEntries = 16384;

std::mutex g_log_mutex;
std::deque<call_record> g_log;            // guarded by g_log_mutex
std::uint64_t g_call_count = 0;           // guarded by g_log_mutex

// The stderr writer (trace layer) prints config_line() ahead of its first
// line; installed at load, so a health event ahead of the first record
// has it too.
[[maybe_unused]] const bool g_config_line_installed =
    (trace::set_config_line(&config_line), true);

// JSONL sink: lazily opened append stream, reopened when the env value
// changes (tests point MKL_VERBOSE_JSON at per-case temp files).
std::mutex g_json_mutex;
std::string g_json_path;                  // guarded by g_json_mutex
std::ofstream g_json_stream;              // guarded by g_json_mutex
bool g_json_warned = false;               // guarded by g_json_mutex

using trace::append_json_escaped;

void write_json_line(const call_record& record) {
  const auto& path = knob_value(knob::verbose_json, parse_path);
  if (!path) return;
  std::lock_guard lock(g_json_mutex);
  if (*path != g_json_path) {
    g_json_stream.close();
    g_json_stream.clear();
    g_json_stream.open(*path, std::ios::app);
    g_json_path = *path;
    g_json_warned = false;
  }
  if (!g_json_stream) {
    // Unwritable sink must not abort the run: one clear warning per path,
    // then records keep flowing to the in-process log only.
    if (!g_json_warned) {
      std::fprintf(stderr,
                   "dcmesh: cannot write %s file \"%s\"; per-call JSON "
                   "records disabled\n",
                   std::string(kVerboseJsonEnvVar).c_str(), path->c_str());
      g_json_warned = true;
    }
    return;
  }
  g_json_stream << record.to_json() << '\n' << std::flush;
}

/// The record's span: ts = start, dur = seconds, named by the site
/// (else the routine); args are the JSON line's members, plus `batch` for a
/// batch and the roofline's predicted device time for one xGEMM.
void emit_span(const call_record& record) {
  const bool gemm = record.routine.ends_with("GEMM");
  std::string name = record.call_site.empty() ? record.routine
                                              : record.call_site;
  std::string args = record.to_json();
  args.pop_back();
  args.erase(0, 1);
  if (record.batch > 0) {
    if (record.call_site.empty()) name += "_BATCH";
    args += ",\"batch\":" + std::to_string(record.batch);
  } else if (gemm) {
    const double predicted =
        trace::predicted_gemm_seconds(model_query(record));
    if (predicted >= 0.0) {
      char buffer[48];
      std::snprintf(buffer, sizeof(buffer), ",\"predicted_us\":%.9g",
                    predicted * 1e6);
      args += buffer;
    }
  }
  auto& tracer = trace::tracer::instance();
  tracer.emit(name, record.batch > 0 ? "gemm_batch" : gemm ? "gemm" : "blas",
              tracer.ns_at(record.start),
              static_cast<std::uint64_t>(std::llround(record.seconds * 1e9)),
              std::move(args));
}

}  // namespace

std::string_view name(fallback_verdict verdict) noexcept {
  switch (verdict) {
    case fallback_verdict::none: return "none";
    case fallback_verdict::passed: return "passed";
    case fallback_verdict::promoted: return "promoted";
  }
  return "none";
}

std::string_view name(health_verdict verdict) noexcept {
  switch (verdict) {
    case health_verdict::none: return "none";
    case health_verdict::clean: return "clean";
    case health_verdict::detected: return "detected";
    case health_verdict::recovered: return "recovered";
  }
  return "none";
}

std::string_view name(abft_verdict verdict) noexcept {
  switch (verdict) {
    case abft_verdict::none: return "none";
    case abft_verdict::checked: return "checked";
    case abft_verdict::detected: return "detected";
    case abft_verdict::corrected: return "corrected";
    case abft_verdict::recovered: return "recovered";
    case abft_verdict::failed: return "failed";
  }
  return "none";
}

std::string call_record::to_string() const {
  // Mirrors the oneMKL verbose format:
  // MKL_VERBOSE SGEMM(N,N,128,896,262144,...) 12.34ms CNR:OFF ... mode:BF16
  // Policy-engine fields are appended after the MKL-compatible prefix so
  // existing MKL_VERBOSE parsers keep working on tagged calls too.
  char buffer[256];
  const double ms = seconds * 1e3;
  std::snprintf(buffer, sizeof(buffer),
                "MKL_VERBOSE %s(%c,%c,%lld,%lld,%lld) lda=%lld ldb=%lld "
                "ldc=%lld %.3fms mode:%s",
                routine.c_str(), transa, transb,
                static_cast<long long>(m), static_cast<long long>(n),
                static_cast<long long>(k), static_cast<long long>(lda),
                static_cast<long long>(ldb), static_cast<long long>(ldc), ms,
                std::string(info(mode).env_token).c_str());
  std::string line = buffer;
  if (!call_site.empty()) {
    line += " site:";
    line += call_site;
    line += " src:";
    line += name(source);
  }
  if (tune != auto_provenance::none) {
    line += " tune:";
    line += name(tune);
  }
  if (fallback != fallback_verdict::none) {
    std::snprintf(buffer, sizeof(buffer),
                  " fallback:%s(resid=%.3e,attempts=%d,from=%s)",
                  std::string(name(fallback)).c_str(), guard_residual,
                  attempts,
                  std::string(info(requested_mode).env_token).c_str());
    line += buffer;
  }
  if (!fault.empty()) {
    line += " fault:";
    line += fault;
  }
  // "clean" on every scanned call would drown the log; only surface the
  // interesting verdicts in the text line (JSON carries all of them).
  if (health == health_verdict::detected ||
      health == health_verdict::recovered) {
    line += " health:";
    line += name(health);
  }
  if (abft != abft_verdict::none && abft != abft_verdict::checked) {
    line += " abft:";
    line += name(abft);
  }
  return line;
}

std::string call_record::to_json() const {
  std::string out = "{\"routine\":\"";
  append_json_escaped(out, routine);
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "\",\"transa\":\"%c\",\"transb\":\"%c\",\"m\":%lld,"
                "\"n\":%lld,\"k\":%lld,\"lda\":%lld,\"ldb\":%lld,"
                "\"ldc\":%lld,\"seconds\":%.9g,\"flops\":%.9g,",
                transa, transb, static_cast<long long>(m),
                static_cast<long long>(n), static_cast<long long>(k),
                static_cast<long long>(lda), static_cast<long long>(ldb),
                static_cast<long long>(ldc), seconds, flops);
  out += buffer;
  out += "\"mode\":\"";
  out += info(mode).env_token;
  out += "\",\"site\":\"";
  append_json_escaped(out, call_site);
  out += "\",\"source\":\"";
  out += name(source);
  out += "\",\"requested_mode\":\"";
  out += info(requested_mode).env_token;
  out += "\",\"fallback\":\"";
  out += name(fallback);
  if (tune != auto_provenance::none) {
    out += "\",\"tune\":\"";
    out += name(tune);
  }
  if (!fault.empty()) {
    out += "\",\"fault\":\"";
    append_json_escaped(out, fault);
  }
  if (health != health_verdict::none) {
    out += "\",\"health\":\"";
    out += name(health);
  }
  if (abft != abft_verdict::none) {
    out += "\",\"abft\":\"";
    out += name(abft);
  }
  std::snprintf(buffer, sizeof(buffer),
                "\",\"residual\":%.9g,\"attempts\":%d}", guard_residual,
                attempts);
  out += buffer;
  return out;
}

std::optional<std::string> render_knob(knob k, std::string_view text) {
  const auto accepted = [text](auto parse) -> std::optional<std::string> {
    try {
      (void)parse(text);
      return std::string(text);
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
  };
  bool ok = false;
  switch (k) {
    case knob::blas_policy: return accepted(parse_policy);
    case knob::fault_plan: return accepted(resil::parse_fault_plan);
    case knob::sched:
      (void)sched::parse_sched(text, &ok);
      return ok ? std::optional<std::string>(text) : std::nullopt;
    case knob::farm_kill: return std::string(text);
    default: return render_knob_value(k, text);
  }
}

std::string config_line() {
  std::string line = "DCMESH_CONFIG";
  for (std::size_t i = 0; i < kKnobCount; ++i) {
    const knob k = static_cast<knob>(i);
    const std::string text = knob_text(k);
    if (text.empty()) continue;
    const auto value = render_knob(k, text);
    line += ' ';
    line += row(k).name;
    line += '=';
    line += value ? *value : "malformed->" + std::string(row(k).fallback);
  }
  return line;
}

void record_call(call_record record) {
  if (record.batch == 0 && trace::tracer::instance().enabled()) {
    emit_span(record);
  }
  if (verbose_enabled()) trace::write_verbose_line(record.to_string());
  write_json_line(record);
  // Operand traffic is A + B plus C read and written (the roofline's
  // streaming assumption).
  const trace::gemm_model_query shape = model_query(record);
  trace::record_gemm_metrics(
      record.call_site, record.routine, shape.mode_token, record.flops,
      gemm_bytes(record.m, record.n, record.k,
                 (shape.is_fp64 ? 8 : 4) * (shape.is_complex ? 2 : 1)),
      record.seconds, record.fallback == fallback_verdict::promoted,
      record.tune == auto_provenance::none ? std::string_view{}
                                           : name(record.tune));
  std::lock_guard lock(g_log_mutex);
  ++g_call_count;
  g_log.push_back(std::move(record));
  if (g_log.size() > kMaxLogEntries) g_log.pop_front();
}

void detail::record_batch(const call_record& summary) {
  if (trace::tracer::instance().enabled()) emit_span(summary);
}

std::vector<call_record> recent_calls() {
  std::lock_guard lock(g_log_mutex);
  return {g_log.begin(), g_log.end()};
}

std::optional<call_record> last_call() {
  std::lock_guard lock(g_log_mutex);
  if (g_log.empty()) return std::nullopt;
  return g_log.back();
}

std::uint64_t call_count() {
  std::lock_guard lock(g_log_mutex);
  return g_call_count;
}

void clear_call_log() {
  std::lock_guard lock(g_log_mutex);
  g_log.clear();
  g_call_count = 0;
}

}  // namespace dcmesh::blas
