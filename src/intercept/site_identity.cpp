#include "site_identity.hpp"

#ifndef _GNU_SOURCE
#define _GNU_SOURCE 1
#endif
#include <dlfcn.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>

#include "dcmesh/common/knobs.hpp"

namespace dcmesh::intercept {
namespace {

// The address->tag cache.  Map values are never erased, so the returned
// c_str() pointers stay valid for the process lifetime (unordered_map is
// node-based: rehashing moves no values).
std::mutex g_mutex;
std::unordered_map<std::uint64_t, std::string> g_sites;  // guarded

std::optional<site_mode> parse_site_mode(std::string_view text) {
  const auto token = parse_token(row(knob::intercept_site_mode).grammar, text);
  if (!token) return std::nullopt;
  return static_cast<site_mode>(*token);  // grammar order = enum order
}

std::string basename_of(const char* path) {
  if (path == nullptr || *path == '\0') return "anon";
  const std::string_view s(path);
  const auto slash = s.find_last_of('/');
  const std::string_view base =
      slash == std::string_view::npos ? s : s.substr(slash + 1);
  return base.empty() ? std::string("anon") : std::string(base);
}

std::string derive_site(void* return_address, site_mode mode) {
  if (mode == site_mode::single) {
    return std::string(kSitePrefix) + "app";
  }
  Dl_info info{};
  const bool resolved = ::dladdr(return_address, &info) != 0;
  char buf[64];
  if (!resolved || info.dli_fbase == nullptr) {
    // No module info: fall back to the absolute address (not ASLR-stable,
    // but still distinct and consistent within one run).
    std::snprintf(buf, sizeof buf, "0x%" PRIxPTR,
                  reinterpret_cast<std::uintptr_t>(return_address));
    return std::string(kSitePrefix) + buf;
  }
  const std::string module = basename_of(info.dli_fname);
  if (mode == site_mode::symbol && info.dli_sname != nullptr) {
    return std::string(kSitePrefix) + module + ":" + info.dli_sname;
  }
  // addr mode (and the symbol-not-found fallback): module-relative
  // offset, stable across runs under ASLR.
  const auto offset = reinterpret_cast<std::uintptr_t>(return_address) -
                      reinterpret_cast<std::uintptr_t>(info.dli_fbase);
  std::snprintf(buf, sizeof buf, "+0x%" PRIxPTR, offset);
  return std::string(kSitePrefix) + module + buf;
}

}  // namespace

const char* name(site_mode mode) noexcept {
  switch (mode) {
    case site_mode::addr: return "addr";
    case site_mode::symbol: return "symbol";
    case site_mode::single: return "single";
  }
  return "addr";
}

site_mode active_site_mode() {
  return knob_value(knob::intercept_site_mode, parse_site_mode)
      .value_or(site_mode::addr);
}

const char* site_for(void* return_address) {
  const site_mode mode = active_site_mode();
  std::lock_guard lock(g_mutex);
  const auto key =
      (static_cast<std::uint64_t>(
           reinterpret_cast<std::uintptr_t>(return_address))
       << 2) |
      static_cast<std::uint64_t>(mode);
  auto it = g_sites.find(key);
  if (it == g_sites.end()) {
    it = g_sites.emplace(key, derive_site(return_address, mode)).first;
  }
  return it->second.c_str();
}

bool autotune_enabled() {
  return knob_value(knob::intercept_autotune, parse_switch).value_or(true);
}

bool chain_enabled() {
  return knob_value(knob::intercept_chain, parse_switch).value_or(false);
}

}  // namespace dcmesh::intercept
