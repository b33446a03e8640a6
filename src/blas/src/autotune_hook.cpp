#include "dcmesh/blas/autotune_hook.hpp"

#include <memory>
#include <mutex>

namespace dcmesh::blas {
namespace {

// Swapped under a mutex, invoked through a shared_ptr snapshot so a
// concurrent set_auto_tune_hook() cannot destroy a resolver mid-call
// (same shape as trace's gemm-time-model hook).
std::mutex g_hook_mutex;
std::shared_ptr<const auto_tune_fn> g_hook;  // guarded by g_hook_mutex

std::shared_ptr<const auto_tune_fn> hook_snapshot() {
  std::lock_guard lock(g_hook_mutex);
  return g_hook;
}

}  // namespace

std::string_view name(auto_provenance provenance) noexcept {
  switch (provenance) {
    case auto_provenance::none: return "none";
    case auto_provenance::cached: return "cached";
    case auto_provenance::modeled: return "modeled";
    case auto_provenance::defaulted: return "defaulted";
  }
  return "none";
}

void set_auto_tune_hook(auto_tune_fn fn) {
  std::lock_guard lock(g_hook_mutex);
  if (fn) {
    g_hook = std::make_shared<const auto_tune_fn>(std::move(fn));
  } else {
    g_hook.reset();
  }
}

bool auto_tune_hook_installed() { return hook_snapshot() != nullptr; }

std::optional<auto_tune_choice> auto_tune_resolve(
    const auto_tune_request& request) {
  const auto hook = hook_snapshot();
  if (!hook) return std::nullopt;
  return (*hook)(request);
}

}  // namespace dcmesh::blas
