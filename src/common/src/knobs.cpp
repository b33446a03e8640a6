#include "dcmesh/common/knobs.hpp"

#include <pthread.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "dcmesh/common/env.hpp"

namespace dcmesh {
namespace {

using enum knob_kind;
constexpr std::string_view kSwitch = "0|1|on|off|true|false|yes|no";

constexpr std::array<knob_row, kKnobCount> kTable = {{
    {"MKL_BLAS_COMPUTE_MODE", "STANDARD|FLOAT_TO_BF16|FLOAT_TO_BF16X2|"
     "FLOAT_TO_BF16X3|FLOAT_TO_TF32|COMPLEX_3M", "STANDARD", token,
     "Process-wide level-3 compute mode (paper Table II)"},
    {"MKL_VERBOSE", "integer", "0", integer,
     ">=1 prints DCMESH_CONFIG, then one line per BLAS call, on stderr"},
    {"MKL_VERBOSE_JSON", "path", "unset", path,
     "Append one JSON object per BLAS call to this file"},
    {"DCMESH_BLAS_POLICY", "glob=MODE[:flag...][;rule...]", "unset", module,
     "Per-call-site compute-mode rules"},
    {"DCMESH_BLAS_GUARD_THRESHOLD", "positive number", "0.01", positive_real,
     "Residual tolerance of guarded policy rules without tol="},
    {"DCMESH_KERNEL_ISA", "auto|avx512|avx2|scalar", "auto", token,
     "Microkernel tier; an unavailable tier falls down the ladder"},
    {"DCMESH_BF16_NATIVE", "auto|0|1|on|off|true|false|yes|no", "auto", token,
     "Off vetoes the AVX512-BF16 native split engine"},
    {"MKL_NUM_THREADS", "integer", "unset", integer,
     "Thread count unless set_num_threads is called (<=0: unset)"},
    {"OMP_NUM_THREADS", "integer", "unset", integer,
     "Thread count when MKL_NUM_THREADS is unset (<=0: unset)"},
    {"DCMESH_SCHED", "serial|pool|pool:N (1<=N<=256)", "serial", module,
     "Step executor: in order on the caller, or the work-stealing pool"},
    {"DCMESH_HEALTH", "off|sample|full|0|1|2", "off", token,
     "NaN/Inf sentinel level; non-off also arms the step invariants"},
    {"DCMESH_HEALTH_SAMPLE", "positive integer", "1", positive_integer,
     "At level sample, scan every Nth GEMM call"},
    {"DCMESH_HEALTH_NORM_DRIFT", "positive number", "0.01", positive_real,
     "Step invariant: max wavefunction norm drift per QD step"},
    {"DCMESH_HEALTH_VALUE_MAX", "positive number", "1e+06", positive_real,
     "Step invariant: bound on |ekin|, |epot|, |etot|, |nexc|, |javg|"},
    {"DCMESH_HEALTH_EKIN_JUMP", "positive number", "0.5", positive_real,
     "Step invariant: max relative ekin change between QD steps"},
    {"DCMESH_ABFT", "off|detect|correct|0|1|2", "off", token,
     "Checksummed GEMM for calls no policy rule's abft= covers"},
    {"DCMESH_FAULT_PLAN", "glob:call:kind[:param[:hits]][;rule...]", "unset",
     module, "Deterministic GEMM fault injection"},
    {"DCMESH_FAULT_SEED", "integer", "24301", integer,
     "Seed of the fault plan's element and bit draws"},
    {"DCMESH_TUNE_CACHE", "path", "unset", path,
     "Autotuner wisdom file (unset: in memory only)"},
    {"DCMESH_TUNE_ULP_BUDGET", "positive finite number", "1024", finite_real,
     "Autotuner error budget in ULPs for rules without ulp="},
    {"DCMESH_TRACE_JSON", "path", "unset", path,
     "Chrome trace file; setting it turns tracing on"},
    {"DCMESH_TRACE_FLUSH_ON_SIGNAL", kSwitch, "off", on_off,
     "Flush the trace on SIGTERM/SIGINT"},
    {"DCMESH_INTERCEPT_SITE_MODE", "addr|symbol|single", "addr", token,
     "How the LD_PRELOAD shim names call sites"},
    {"DCMESH_INTERCEPT_AUTOTUNE", kSwitch, "on", on_off,
     "Install the autotuner when the shim loads"},
    {"DCMESH_INTERCEPT_CHAIN", kSwitch, "off", on_off,
     "Forward shim calls to the next BLAS in the link chain"},
    {"DCMESH_FARM_KILL", "glob[:seconds]", "unset", module,
     "Campaign farm fault plan: SIGKILL the first matching run"},
}};

std::atomic<std::uint64_t> g_generation{1};
// Newest-first chain of every entry parsed, per knob (under knob_mutex).
const detail::knob_entry* g_history[kKnobCount] = {};

// A fork() child must not inherit the table lock mid-parse.
[[maybe_unused]] const int g_atfork = pthread_atfork(
    [] { detail::knob_mutex().lock(); }, [] { detail::knob_mutex().unlock(); },
    [] { detail::knob_mutex().unlock(); });

/// The token of `grammar` that `text` names, with its index.
std::optional<std::pair<std::size_t, std::string_view>> match_token(
    std::string_view grammar, std::string_view text) {
  const std::string want = to_lower(trim(text));
  for (std::size_t index = 0, start = 0; start <= grammar.size(); ++index) {
    const std::size_t bar = std::min(grammar.find('|', start), grammar.size());
    const std::string_view token = grammar.substr(start, bar - start);
    if (to_lower(token) == want) return std::pair(index, token);
    start = bar + 1;
  }
  return std::nullopt;
}

}  // namespace

const std::array<knob_row, kKnobCount>& knob_table() noexcept {
  return kTable;
}

const knob_row& row(knob k) noexcept {
  return kTable[static_cast<std::size_t>(k)];
}

std::optional<knob> find_knob(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kKnobCount; ++i) {
    if (kTable[i].name == name) return static_cast<knob>(i);
  }
  return std::nullopt;
}

std::optional<long> parse_integer(std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size()) return std::nullopt;
  return v;
}

std::optional<long> parse_positive_integer(std::string_view text) {
  const auto v = parse_integer(text);
  return v && *v > 0 ? v : std::nullopt;
}

std::optional<double> parse_positive_real(std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || !(v > 0.0)) {
    return std::nullopt;
  }
  return v;
}

std::optional<bool> parse_switch(std::string_view text) {
  static constexpr bool kOn[] = {false, true, true,  false,  // 0 1 on off
                                 true,  false, true, false};  // true ... no
  const auto token = match_token(kSwitch, text);
  return token ? std::optional(kOn[token->first]) : std::nullopt;
}

std::optional<std::string> parse_path(std::string_view text) {
  for (const char c : text) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) return std::nullopt;
  }
  return std::string(text);
}

std::optional<std::size_t> parse_token(std::string_view grammar,
                                       std::string_view text) {
  const auto token = match_token(grammar, text);
  return token ? std::optional(token->first) : std::nullopt;
}

std::optional<std::string> render_knob_value(knob k, std::string_view text) {
  bool ok = false;
  switch (row(k).kind) {
    case integer: ok = parse_integer(text).has_value(); break;
    case positive_integer: ok = parse_positive_integer(text).has_value(); break;
    case positive_real: ok = parse_positive_real(text).has_value(); break;
    case finite_real: {
      const auto v = parse_positive_real(text);
      ok = v && std::isfinite(*v);
      break;
    }
    case on_off: ok = parse_switch(text).has_value(); break;
    case path: ok = parse_path(text).has_value(); break;
    case token:  // the grammar's own spelling
      if (const auto t = match_token(row(k).grammar, text)) {
        return std::string(t->second);
      }
      break;
    case module: break;
  }
  return ok ? std::optional<std::string>(text) : std::nullopt;
}

std::string knob_text(knob k) {
  const char* raw = std::getenv(std::string(row(k).name).c_str());
  return raw != nullptr ? std::string(trim(raw)) : std::string();
}

void knob_changed(std::string_view name) {
  g_generation.fetch_add(1);
  if (const auto k = find_knob(name)) {
    detail::g_knob_cache[static_cast<std::size_t>(*k)].store(nullptr);
  }
}

namespace detail {

std::mutex& knob_mutex() noexcept {
  static std::mutex mutex;  // trivially destructible: usable from atexit
  return mutex;
}

std::uint64_t knob_generation() noexcept { return g_generation.load(); }

void publish_knob(knob k, knob_entry* entry, std::uint64_t generation) {
  const std::size_t i = static_cast<std::size_t>(k);
  bool warned = !entry->malformed;
  for (const knob_entry* e = g_history[i]; e && !warned; e = e->older) {
    warned = e->malformed && e->text == entry->text;
  }
  entry->older = std::exchange(g_history[i], entry);
  if (!warned) {
    const knob_row& r = row(k);
    std::fprintf(stderr,
                 "dcmesh: malformed %s=\"%s\" (expected %s); using %s\n",
                 std::string(r.name).c_str(), entry->text.c_str(),
                 std::string(r.grammar).c_str(),
                 std::string(r.fallback).c_str());
  }
  g_knob_cache[i].store(entry);
  // An env_set racing this parse may have been missed: drop the entry so
  // the next read re-parses.
  if (g_generation.load() != generation) {
    const knob_entry* expected = entry;
    g_knob_cache[i].compare_exchange_strong(expected, nullptr);
  }
}

}  // namespace detail
}  // namespace dcmesh
