#include "dcmesh/blas/precision_policy.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "dcmesh/common/env.hpp"
#include "dcmesh/common/knobs.hpp"

namespace dcmesh::blas {
namespace {

// Programmatic policy (shared across threads, like set_compute_mode) and
// the per-site guard statistics.
std::mutex g_policy_mutex;
std::shared_ptr<const precision_policy> g_api_policy;  // guarded

std::mutex g_stats_mutex;
std::map<std::string, site_fallback_stats, std::less<>> g_stats;  // guarded

/// Split `text` on ';' or ',' into trimmed non-empty rule strings.
std::vector<std::string_view> split_rules(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ';' || text[i] == ',') {
      const std::string_view piece = trim(text.substr(start, i - start));
      if (!piece.empty()) out.push_back(piece);
      start = i + 1;
    }
  }
  return out;
}

policy_rule parse_rule(std::string_view rule_text) {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument("precision policy rule \"" +
                                std::string(rule_text) + "\": " + what);
  };
  const auto eq = rule_text.find('=');
  if (eq == std::string_view::npos) fail("expected glob=MODE");
  policy_rule rule;
  rule.pattern = std::string(trim(rule_text.substr(0, eq)));
  if (rule.pattern.empty()) fail("empty site glob");

  // MODE and ':'-separated flags.
  std::string_view rest = trim(rule_text.substr(eq + 1));
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= rest.size(); ++i) {
    if (i == rest.size() || rest[i] == ':') {
      parts.push_back(trim(rest.substr(start, i - start)));
      start = i + 1;
    }
  }
  if (parts.empty() || parts[0].empty()) fail("missing compute mode");
  if (to_upper(parts[0]) == "AUTO") {
    rule.automatic = true;  // mode stays standard (the no-resolver fallback)
  } else {
    const auto mode = parse_compute_mode(parts[0]);
    if (!mode) {
      fail("unknown compute mode \"" + std::string(parts[0]) + "\"");
    }
    rule.mode = *mode;
  }

  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string flag = to_upper(parts[i]);
    const auto positive_value = [&](std::size_t prefix_len) {
      const auto value = parse_positive_real(flag.substr(prefix_len));
      if (!value) fail("unparsable value \"" + std::string(parts[i]) + "\"");
      return *value;
    };
    if (flag == "GUARDED") {
      rule.guarded = true;
    } else if (flag.rfind("TOL=", 0) == 0) {
      rule.guarded = true;  // tol implies guarded
      rule.tolerance = positive_value(4);
    } else if (flag.rfind("ULP=", 0) == 0) {
      rule.ulp_budget = positive_value(4);
    } else if (flag.rfind("ABFT=", 0) == 0) {
      const auto abft = resil::parse_abft_mode(flag.substr(5));
      if (!abft) {
        fail("unknown abft mode \"" + std::string(parts[i]) +
             "\" (want abft=off|detect|correct)");
      }
      rule.abft = *abft;
    } else {
      fail("unknown flag \"" + std::string(parts[i]) + "\"");
    }
  }
  return rule;
}

/// DCMESH_BLAS_POLICY grammar: a malformed env policy reads as unset
/// (the env path must not throw on every BLAS call).
std::optional<precision_policy> parse_env_policy(std::string_view text) {
  try {
    return parse_policy(text);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

std::shared_ptr<const precision_policy> current_policy() {
  {
    std::lock_guard lock(g_policy_mutex);
    if (g_api_policy) return g_api_policy;
  }
  static const precision_policy kNoRules;
  const auto& env = knob_value(knob::blas_policy, parse_env_policy);
  // Knob entries are never freed, so a non-owning pointer is safe.
  return {std::shared_ptr<void>(), env ? &*env : &kNoRules};
}

double default_guard_tolerance() {
  return knob_value(knob::guard_threshold, parse_positive_real)
      .value_or(kDefaultGuardThreshold);
}

}  // namespace

std::string_view name(policy_source source) noexcept {
  switch (source) {
    case policy_source::standard_default: return "standard_default";
    case policy_source::env_global: return "env_global";
    case policy_source::api_global: return "api_global";
    case policy_source::site_policy: return "site_policy";
    case policy_source::scoped: return "scoped";
    case policy_source::call_override: return "call_override";
  }
  return "standard_default";
}

const policy_rule* precision_policy::match(
    std::string_view site) const noexcept {
  for (const auto& rule : rules) {
    if (glob_match(rule.pattern, site)) return &rule;
  }
  return nullptr;
}

precision_policy parse_policy(std::string_view text) {
  precision_policy policy;
  for (const std::string_view rule_text : split_rules(text)) {
    policy.rules.push_back(parse_rule(rule_text));
  }
  return policy;
}

void set_policy(precision_policy policy) {
  std::lock_guard lock(g_policy_mutex);
  g_api_policy =
      std::make_shared<const precision_policy>(std::move(policy));
}

void clear_policy() {
  std::lock_guard lock(g_policy_mutex);
  g_api_policy.reset();
}

precision_policy active_policy() { return *current_policy(); }

mode_resolution resolve_compute_mode(
    std::string_view call_site, std::optional<compute_mode> call_override) {
  if (call_override) {
    return {*call_override, policy_source::call_override, false, 0.0};
  }
  if (const auto scoped = scoped_mode_override()) {
    return {*scoped, policy_source::scoped, false, 0.0};
  }
  if (!call_site.empty()) {
    const auto policy = current_policy();
    if (const policy_rule* rule = policy->match(call_site)) {
      return {rule->mode, policy_source::site_policy, rule->guarded,
              rule->tolerance.value_or(default_guard_tolerance()),
              rule->automatic, rule->ulp_budget.value_or(0.0), rule->abft};
    }
  }
  if (const auto api = api_mode_override()) {
    return {*api, policy_source::api_global, false, 0.0};
  }
  if (const auto env = env_mode_override()) {
    return {*env, policy_source::env_global, false, 0.0};
  }
  return {compute_mode::standard, policy_source::standard_default, false,
          0.0};
}

compute_mode next_higher_mode(compute_mode mode) noexcept {
  // Ordered by component mantissa bits: BF16 (7) < TF32 (10) < BF16x2
  // (~15) < BF16x3 (~23) < standard FP32 (23, no split error).
  switch (mode) {
    case compute_mode::float_to_bf16: return compute_mode::float_to_tf32;
    case compute_mode::float_to_tf32: return compute_mode::float_to_bf16x2;
    case compute_mode::float_to_bf16x2:
      return compute_mode::float_to_bf16x3;
    default: return compute_mode::standard;
  }
}

void record_fallback(std::string_view site, bool promoted,
                     compute_mode final_mode, double residual) {
  std::lock_guard lock(g_stats_mutex);
  auto it = g_stats.find(site);
  if (it == g_stats.end()) {
    it = g_stats.emplace(std::string(site), site_fallback_stats{}).first;
  }
  auto& stats = it->second;
  ++stats.guarded_calls;
  if (promoted) ++stats.promotions;
  stats.last_mode = final_mode;
  stats.last_residual = residual;
}

std::vector<std::pair<std::string, site_fallback_stats>> fallback_stats() {
  std::lock_guard lock(g_stats_mutex);
  return {g_stats.begin(), g_stats.end()};
}

void clear_fallback_stats() {
  std::lock_guard lock(g_stats_mutex);
  g_stats.clear();
}

}  // namespace dcmesh::blas
