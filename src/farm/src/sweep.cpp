#include "dcmesh/farm/sweep.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dcmesh/blas/verbose.hpp"  // render_knob
#include "dcmesh/common/env.hpp"
#include "dcmesh/common/knobs.hpp"
#include "dcmesh/core/presets.hpp"
#include "dcmesh/farm/runner.hpp"  // parse_kill_plan

namespace dcmesh::farm {
namespace {

std::vector<std::string> split_values(std::string_view text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const auto end = comma == std::string_view::npos ? text.size() : comma;
    const std::string value{trim(text.substr(start, end - start))};
    if (!value.empty()) out.push_back(value);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return out;
}

core::run_config preset_by_name(const std::string& name) {
  for (const core::paper_system system : core::all_presets()) {
    if (core::name(system) == name) return core::preset(system);
  }
  throw std::runtime_error("unknown preset '" + name + "'");
}

/// Env axes are exactly the knob table's names.  A key with a reserved
/// prefix that names no knob is an env axis too, rejected at expansion;
/// everything else must parse as a run-deck key.
bool is_env_key(std::string_view upper_key) {
  return find_knob(upper_key) || upper_key.rfind("DCMESH_", 0) == 0 ||
         upper_key.rfind("MKL_", 0) == 0 || upper_key.rfind("OMP_", 0) == 0;
}

/// Fail at expansion, not in the run: the axis must name a knob and each
/// value must parse under that knob's own grammar.
void check_env_axis(const sweep_axis& axis) {
  const auto k = find_knob(axis.key);
  if (!k) throw std::runtime_error("unknown environment knob: " + axis.key);
  for (const std::string& value : axis.values) {
    const bool ok = *k == knob::farm_kill
                        ? parse_kill_plan(value).has_value()
                        : blas::render_knob(*k, value).has_value();
    if (!ok) {
      throw std::runtime_error("malformed " + axis.key + "=\"" + value +
                               "\" (expected " +
                               std::string(row(*k).grammar) + ")");
    }
  }
}

}  // namespace

sweep_spec parse_sweep(std::istream& in) {
  sweep_spec spec;
  spec.base = preset_by_name(spec.base_name);
  std::string line;
  int line_number = 0;
  const auto fail = [&line_number](const std::string& what) {
    throw std::runtime_error("sweep line " + std::to_string(line_number) +
                             ": " + what);
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos) fail("expected 'key = value'");
    const std::string raw_key{trim(trimmed.substr(0, eq))};
    const std::string upper_key = to_upper(raw_key);
    const std::vector<std::string> values =
        split_values(trimmed.substr(eq + 1));
    if (values.empty()) fail("missing value for " + raw_key);

    if (upper_key == "PRESET") {
      if (values.size() != 1) fail("preset takes one value");
      try {
        spec.base = preset_by_name(values.front());
      } catch (const std::exception& error) {
        fail(error.what());
      }
      spec.base_name = values.front();
    } else if (upper_key == "DECK") {
      if (values.size() != 1) fail("deck takes one value");
      try {
        spec.base = core::parse_config_file(values.front());
      } catch (const std::exception& error) {
        fail(error.what());
      }
      spec.base_name = values.front();
    } else if (upper_key == "WORKERS") {
      if (values.size() != 1) fail("workers takes one value");
      spec.workers = std::stoi(values.front());
      if (spec.workers < 1) fail("workers must be >= 1");
    } else if (upper_key == "TIMEOUT") {
      if (values.size() != 1) fail("timeout takes one value");
      spec.timeout_seconds = std::stod(values.front());
      if (!(spec.timeout_seconds > 0)) fail("timeout must be > 0");
    } else {
      sweep_axis axis;
      axis.is_env = is_env_key(upper_key);
      // Env vars take the table's (upper) case; deck keys are normalized
      // lower so the tag reads like a deck line.
      axis.key = axis.is_env ? upper_key : to_lower(upper_key);
      axis.values = values;
      spec.axes.push_back(std::move(axis));
    }
  }
  return spec;
}

sweep_spec parse_sweep_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open sweep deck: " + path);
  return parse_sweep(in);
}

void add_axis(sweep_spec& spec, const std::string& assignment) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::runtime_error("--set expects KEY=value[,value...]: " +
                             assignment);
  }
  sweep_axis axis;
  const std::string raw_key{trim(std::string_view(assignment).substr(0, eq))};
  const std::string upper_key = to_upper(raw_key);
  axis.is_env = is_env_key(upper_key);
  axis.key = axis.is_env ? upper_key : to_lower(upper_key);
  axis.values = split_values(std::string_view(assignment).substr(eq + 1));
  if (axis.values.empty()) {
    throw std::runtime_error("--set " + raw_key + ": no values");
  }
  spec.axes.push_back(std::move(axis));
}

std::vector<campaign_run> expand(const sweep_spec& spec) {
  std::size_t total = 1;
  for (const auto& axis : spec.axes) {
    if (axis.is_env) check_env_axis(axis);
    total *= axis.values.size();
  }

  const std::string base_deck = core::to_deck(spec.base);
  std::vector<campaign_run> runs;
  runs.reserve(total);
  for (std::size_t cell = 0; cell < total; ++cell) {
    campaign_run run;
    char id[32];
    std::snprintf(id, sizeof id, "run-%04zu", cell);
    run.id = id;
    run.deck = base_deck;

    // Mixed-radix decode, first axis slowest: the matrix enumerates in
    // the reader's declaration order.
    std::size_t rest = cell, radix = total;
    for (const auto& axis : spec.axes) {
      radix /= axis.values.size();
      const std::string& value = axis.values[rest / radix];
      rest %= radix;
      if (!run.tag.empty()) run.tag += ',';
      run.tag += axis.key + "=" + value;
      if (axis.is_env) {
        run.env.emplace_back(axis.key, value);
      } else {
        // Deck keys are last-wins, so appending overrides the base.
        run.deck += axis.key + " = " + value + '\n';
      }
    }

    // Fail at expansion, not mid-campaign: every cell's deck must parse
    // and validate.
    try {
      std::istringstream check(run.deck);
      (void)core::parse_config(check);
    } catch (const std::exception& error) {
      throw std::runtime_error(run.id + " (" + run.tag +
                               "): " + error.what());
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

}  // namespace dcmesh::farm
