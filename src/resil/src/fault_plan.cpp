#include "dcmesh/resil/fault_plan.hpp"

#include <atomic>
#include <mutex>
#include <stdexcept>

#include "dcmesh/common/env.hpp"
#include "dcmesh/common/knobs.hpp"
#include "dcmesh/common/rng.hpp"

namespace dcmesh::resil {
namespace {

/// Active plan plus its per-rule occurrence counters.
struct plan_state {
  fault_plan plan;
  std::vector<std::int64_t> matched;  ///< Matching calls seen, per rule.
  std::uint64_t seed = 0;
};

std::mutex g_mutex;
// All guarded by g_mutex:
std::optional<fault_plan> g_programmatic;
plan_state g_state;
/// The DCMESH_FAULT_PLAN knob entry g_state was armed from; a new entry
/// (first query, env_set, reset_fault_state) re-arms the counters.
const std::optional<fault_plan>* g_armed_from = nullptr;

std::atomic<bool> g_have_programmatic{false};
std::atomic<std::uint64_t> g_injections{0};

void rearm(plan_state& state, fault_plan plan) {
  state.plan = std::move(plan);
  state.matched.assign(state.plan.rules.size(), 0);
  state.seed = static_cast<std::uint64_t>(
      knob_value(knob::fault_seed, parse_integer).value_or(0x5eed));
}

/// Knob grammar: a malformed plan reads as no plan — the env-robustness
/// contract: never throw from the GEMM hot path.
std::optional<fault_plan> parse_env_plan(std::string_view text) {
  try {
    return parse_fault_plan(text);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

const std::optional<fault_plan>& env_plan() {
  return knob_value(knob::fault_plan, parse_env_plan);
}

}  // namespace

std::string_view name(fault_kind kind) noexcept {
  switch (kind) {
    case fault_kind::bitflip: return "bitflip";
    case fault_kind::bitflip_a: return "bitflip_a";
    case fault_kind::bitflip_b: return "bitflip_b";
    case fault_kind::nan_value: return "nan";
    case fault_kind::inf_value: return "inf";
    case fault_kind::scale: return "scale";
  }
  return "?";
}

fault_plan parse_fault_plan(std::string_view text) {
  fault_plan plan;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find_first_of(";,", begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view rule_text = trim(text.substr(begin, end - begin));
    begin = end + 1;
    if (rule_text.empty()) {
      if (end == text.size()) break;
      continue;
    }

    // site-glob ':' call# ':' kind [':' param [':' hits]] — split on ':'.
    std::vector<std::string_view> fields;
    std::size_t field_begin = 0;
    while (field_begin <= rule_text.size()) {
      std::size_t field_end = rule_text.find(':', field_begin);
      if (field_end == std::string_view::npos) field_end = rule_text.size();
      fields.push_back(
          trim(rule_text.substr(field_begin, field_end - field_begin)));
      if (field_end == rule_text.size()) break;
      field_begin = field_end + 1;
    }
    const std::string context = "fault rule \"" + std::string(rule_text) +
                                "\"";
    if (fields.size() < 3 || fields.size() > 5) {
      throw std::invalid_argument(
          context + ": expected site-glob:call#:kind[:param[:hits]]");
    }
    fault_rule rule;
    rule.pattern = std::string(fields[0]);
    if (rule.pattern.empty()) {
      throw std::invalid_argument(context + ": empty site glob");
    }

    if (fields[1] == "*") {
      rule.call_index = -1;
    } else {
      const auto index = parse_integer(fields[1]);
      if (!index || *index < 0) {
        throw std::invalid_argument(context + ": bad call index \"" +
                                    std::string(fields[1]) + "\"");
      }
      rule.call_index = *index;
    }

    // Token order = fault_kind order.
    const auto kind =
        parse_token("bitflip|bitflip_a|bitflip_b|nan|inf|scale", fields[2]);
    if (!kind) {
      throw std::invalid_argument(context + ": unknown fault kind \"" +
                                  std::string(fields[2]) + "\"");
    }
    rule.kind = static_cast<fault_kind>(*kind);

    if (fields.size() >= 4) {
      const std::string param_text(fields[3]);
      // An empty param is allowed when a hits field follows
      // ("site:0:bitflip_a::3" — random bit, three elements).
      if (!param_text.empty() || fields.size() == 4) {
        char* parse_end = nullptr;
        const double parsed = std::strtod(param_text.c_str(), &parse_end);
        if (param_text.empty() ||
            parse_end != param_text.c_str() + param_text.size()) {
          throw std::invalid_argument(context + ": bad param \"" +
                                      param_text + "\"");
        }
        rule.param = parsed;
      }
    }
    if (fields.size() == 5) {
      const auto hits = parse_positive_integer(fields[4]);
      if (!hits) {
        throw std::invalid_argument(context + ": bad hit count \"" +
                                    std::string(fields[4]) + "\"");
      }
      rule.hits = *hits;
    }
    plan.rules.push_back(std::move(rule));
    if (end == text.size()) break;
  }
  return plan;
}

std::optional<fault_hit> next_fault(std::string_view site) {
  // Fast path: no programmatic plan and no env plan -> inert.
  if (!g_have_programmatic.load(std::memory_order_relaxed) && !env_plan()) {
    return std::nullopt;
  }

  std::lock_guard lock(g_mutex);
  if (!g_programmatic && &env_plan() != g_armed_from) {
    g_armed_from = &env_plan();
    rearm(g_state, g_armed_from->value_or(fault_plan{}));
  }
  if (g_state.plan.empty()) return std::nullopt;

  std::optional<fault_hit> hit;
  for (std::size_t r = 0; r < g_state.plan.rules.size(); ++r) {
    const fault_rule& rule = g_state.plan.rules[r];
    if (!glob_match(rule.pattern, site)) continue;
    const std::int64_t occurrence = g_state.matched[r]++;
    if (hit) continue;  // first firing rule wins, but counters still run
    if (rule.call_index >= 0 && rule.call_index != occurrence) continue;
    // Deterministic draws: one xoshiro stream per (seed, rule, occurrence).
    const std::uint64_t stream =
        g_state.seed +
        0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(r) +
        0xd1b54a32d192ed03ull * static_cast<std::uint64_t>(occurrence);
    xoshiro256 rng(stream);
    fault_hit h;
    h.kind = rule.kind;
    h.param = rule.param;
    h.pick0 = rng();
    h.pick1 = rng();
    h.rule = static_cast<int>(r);
    h.occurrence = occurrence;
    h.hits = rule.hits;
    h.draw_seed = stream;
    hit = h;
  }
  if (hit) g_injections.fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void set_fault_plan(std::optional<fault_plan> plan) {
  std::lock_guard lock(g_mutex);
  g_programmatic = std::move(plan);
  g_have_programmatic.store(g_programmatic.has_value(),
                            std::memory_order_relaxed);
  if (g_programmatic) {
    rearm(g_state, *g_programmatic);
  } else {
    g_armed_from = nullptr;  // re-arm from the env on the next query
    rearm(g_state, fault_plan{});
  }
  g_injections.store(0, std::memory_order_relaxed);
}

void reset_fault_state() {
  std::lock_guard lock(g_mutex);
  if (g_programmatic) {
    rearm(g_state, *g_programmatic);
  } else {
    g_armed_from = nullptr;
    rearm(g_state, fault_plan{});
  }
  g_injections.store(0, std::memory_order_relaxed);
}

std::uint64_t injection_count() {
  return g_injections.load(std::memory_order_relaxed);
}

}  // namespace dcmesh::resil
