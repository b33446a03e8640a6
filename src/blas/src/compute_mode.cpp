#include "dcmesh/blas/compute_mode.hpp"

#include <mutex>

#include "dcmesh/common/env.hpp"
#include "dcmesh/common/knobs.hpp"

namespace dcmesh::blas {
namespace {

// Programmatic override shared across threads (like mkl_set_* APIs), plus a
// thread-local scoped override used by scoped_compute_mode.
std::mutex g_mode_mutex;
std::optional<compute_mode> g_api_mode;        // guarded by g_mode_mutex
thread_local std::optional<compute_mode> t_scoped_mode;

constexpr std::array<compute_mode_info, kNumComputeModes> kRegistry = {{
    {compute_mode::standard, "FP32", "STANDARD", 1, 1.0, 23},
    {compute_mode::float_to_bf16, "BF16", "FLOAT_TO_BF16", 1, 16.0, 7},
    {compute_mode::float_to_bf16x2, "BF16x2", "FLOAT_TO_BF16X2", 3,
     16.0 / 3.0, 7},
    {compute_mode::float_to_bf16x3, "BF16x3", "FLOAT_TO_BF16X3", 6, 8.0 / 3.0,
     7},
    {compute_mode::float_to_tf32, "TF32", "FLOAT_TO_TF32", 1, 8.0, 10},
    {compute_mode::complex_3m, "Complex_3m", "COMPLEX_3M", 1, 4.0 / 3.0, 23},
}};

}  // namespace

const std::array<compute_mode_info, kNumComputeModes>&
compute_mode_registry() noexcept {
  return kRegistry;
}

const compute_mode_info& info(compute_mode mode) noexcept {
  for (const auto& entry : kRegistry) {
    if (entry.mode == mode) return entry;
  }
  return kRegistry[0];
}

std::string_view name(compute_mode mode) noexcept { return info(mode).name; }

std::optional<compute_mode> parse_compute_mode(
    std::string_view token) noexcept {
  const std::string normalized = to_upper(trim(token));
  for (const auto& entry : kRegistry) {
    if (normalized == entry.env_token) return entry.mode;
  }
  return std::nullopt;
}

std::optional<compute_mode> scoped_mode_override() noexcept {
  return t_scoped_mode;
}

std::optional<compute_mode> api_mode_override() {
  std::lock_guard lock(g_mode_mutex);
  return g_api_mode;
}

std::optional<compute_mode> env_mode_override() {
  return knob_value(knob::compute_mode, parse_compute_mode);
}

compute_mode active_compute_mode() {
  if (const auto scoped = scoped_mode_override()) return *scoped;
  if (const auto api = api_mode_override()) return *api;
  if (const auto env = env_mode_override()) return *env;
  return compute_mode::standard;
}

void set_compute_mode(compute_mode mode) {
  std::lock_guard lock(g_mode_mutex);
  g_api_mode = mode;
}

void clear_compute_mode() {
  std::lock_guard lock(g_mode_mutex);
  g_api_mode.reset();
}

scoped_compute_mode::scoped_compute_mode(compute_mode mode)
    : had_previous_(t_scoped_mode.has_value()),
      previous_(t_scoped_mode.value_or(compute_mode::standard)) {
  t_scoped_mode = mode;
}

scoped_compute_mode::~scoped_compute_mode() {
  if (had_previous_) {
    t_scoped_mode = previous_;
  } else {
    t_scoped_mode.reset();
  }
}

}  // namespace dcmesh::blas
