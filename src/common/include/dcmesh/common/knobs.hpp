#pragma once
// knobs.hpp — the one table of environment knobs.
//
// The environment is this reproduction's user interface (the paper
// switches BLAS precision with MKL_BLAS_COMPUTE_MODE alone), so every
// variable the engine reads is one row here — name, grammar, default,
// one-line doc — and every read is a knob_value(), with one lifetime:
// parsed on first read and cached; env_set/env_unset bump a process-wide
// generation that drops the knob's cache, so the next read re-parses.
// A cached read is one atomic load: no mutex, no getenv, no allocation.
// Unset or blank reads as nullopt (the caller's default); so does a
// malformed value, which warns once per (knob, value):
//   dcmesh: malformed NAME="v" (expected GRAMMAR); using DEFAULT
// Modules keep their grammars (parse_level, parse_sched, ...) and set_*
// overrides.  A raw setenv is not seen by a knob already read.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace dcmesh {

/// One enumerator per table row, in table order.
enum class knob : unsigned char {
  compute_mode, verbose, verbose_json, blas_policy, guard_threshold,
  kernel_isa, bf16_native, mkl_num_threads, omp_num_threads, sched,
  health, health_sample, health_norm_drift, health_value_max,
  health_ekin_jump, abft, fault_plan, fault_seed, tune_cache,
  tune_ulp_budget, trace_json, trace_flush_on_signal, intercept_site_mode,
  intercept_autotune, intercept_chain, farm_kill, count
};
inline constexpr std::size_t kKnobCount = static_cast<std::size_t>(knob::count);

/// Which parser checks a value when the reading module is not at hand
/// (render_knob_value): `module` grammars only the module can check.
enum class knob_kind { integer, positive_integer, positive_real, finite_real,
                       on_off, path, token, module };

struct knob_row {
  std::string_view name, grammar, fallback;  ///< As the warning shows them.
  knob_kind kind;
  std::string_view doc;
};

[[nodiscard]] const std::array<knob_row, kKnobCount>& knob_table() noexcept;
[[nodiscard]] const knob_row& row(knob k) noexcept;
[[nodiscard]] std::optional<knob> find_knob(std::string_view name) noexcept;

// Shared grammars over trimmed, non-empty text.
[[nodiscard]] std::optional<long> parse_integer(std::string_view text);
[[nodiscard]] std::optional<long> parse_positive_integer(std::string_view text);
/// > 0; inf included, nan not.
[[nodiscard]] std::optional<double> parse_positive_real(std::string_view text);
/// 0|1|on|off|true|false|yes|no, case-insensitive.
[[nodiscard]] std::optional<bool> parse_switch(std::string_view text);
/// Any text without control characters.
[[nodiscard]] std::optional<std::string> parse_path(std::string_view text);
/// Index of `text` among the '|'-separated tokens of `grammar`, any case.
[[nodiscard]] std::optional<std::size_t> parse_token(std::string_view grammar,
                                                     std::string_view text);
/// `text` as a value of `k`, checked by its kind (a token in the grammar's
/// spelling); nullopt when malformed or when the kind is `module`.
[[nodiscard]] std::optional<std::string> render_knob_value(
    knob k, std::string_view text);

/// Trimmed text of `k` in the environment now ("" when unset), uncached.
[[nodiscard]] std::string knob_text(knob k);

/// Drop the cache of knob `name` (no-op for other names).  env_set and
/// env_unset call it; call it directly only where the environment changed
/// another way, e.g. through a second engine copy in the same process.
void knob_changed(std::string_view name);

namespace detail {

struct knob_entry {
  const knob_entry* older = nullptr;  ///< Every entry stays reachable.
  std::string text;                   ///< "" = unset.
  bool malformed = false;
};

template <typename T>
struct typed_knob_entry final : knob_entry {
  std::optional<T> value;
};

inline std::atomic<const knob_entry*> g_knob_cache[kKnobCount]{};

std::mutex& knob_mutex() noexcept;
[[nodiscard]] std::uint64_t knob_generation() noexcept;
/// Make `entry` current (caller holds knob_mutex), warning if malformed.
void publish_knob(knob k, knob_entry* entry, std::uint64_t generation);

}  // namespace detail

/// The cached value of `k` under `parse` (one parser per knob).  Entries
/// are never freed: the reference stays valid, also in atexit handlers.
template <typename T>
const std::optional<T>& knob_value(
    knob k, std::optional<T> (*parse)(std::string_view)) {
  auto& slot = detail::g_knob_cache[static_cast<std::size_t>(k)];
  const detail::knob_entry* hit = slot.load(std::memory_order_acquire);
  if (hit == nullptr) {
    std::lock_guard lock(detail::knob_mutex());
    hit = slot.load(std::memory_order_acquire);
    if (hit == nullptr) {
      const std::uint64_t generation = detail::knob_generation();
      auto* fresh = new detail::typed_knob_entry<T>;
      fresh->text = knob_text(k);
      if (!fresh->text.empty()) fresh->value = parse(fresh->text);
      fresh->malformed = !fresh->text.empty() && !fresh->value;
      detail::publish_knob(k, fresh, generation);
      hit = fresh;
    }
  }
  return static_cast<const detail::typed_knob_entry<T>*>(hit)->value;
}

}  // namespace dcmesh
