#include "dcmesh/tune/wisdom.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "dcmesh/common/atomic_file.hpp"
#include "dcmesh/common/file_lock.hpp"
#include "dcmesh/trace/tracer.hpp"  // JSON line helpers

namespace dcmesh::tune {
namespace {

using trace::json_number_field;
using trace::json_string_field;

std::optional<shape_class> parse_shape_class(std::string_view text) {
  // "m<bits>n<bits>k<bits>"
  int m = 0, n = 0, k = 0;
  if (std::sscanf(std::string(text).c_str(), "m%dn%dk%d", &m, &n, &k) != 3) {
    return std::nullopt;
  }
  if (m < 0 || n < 0 || k < 0) return std::nullopt;
  return shape_class{m, n, k};
}

int bit_width(std::int64_t v) noexcept {
  if (v < 1) v = 1;
  int bits = 0;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

}  // namespace

std::string shape_class::to_string() const {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "m%dn%dk%d", m_bits, n_bits,
                k_bits);
  return buffer;
}

shape_class classify_shape(std::int64_t m, std::int64_t n,
                           std::int64_t k) noexcept {
  return {bit_width(m), bit_width(n), bit_width(k)};
}

std::string wisdom_key(std::string_view routine, std::string_view site,
                       shape_class cls, double ulp_budget) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "|%s|%.6g", cls.to_string().c_str(),
                ulp_budget);
  std::string key(routine);
  key += '|';
  key += site;
  key += buffer;
  return key;
}

std::string wisdom_entry::key() const {
  return wisdom_key(routine, site, cls, ulp_budget);
}

std::string wisdom_entry::to_json() const {
  std::string out = "{\"routine\":\"";
  trace::append_json_escaped(out, routine);
  out += "\",\"site\":\"";
  trace::append_json_escaped(out, site);
  out += "\",\"class\":\"";
  out += cls.to_string();
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "\",\"ulp_budget\":%.9g,\"mode\":\"",
                ulp_budget);
  out += buffer;
  out += mode_token;
  std::snprintf(buffer, sizeof(buffer), "\",\"err_ulp\":%.9g", err_ulp);
  out += buffer;
  if (generation > 0) {
    std::snprintf(buffer, sizeof(buffer), ",\"gen\":%llu",
                  static_cast<unsigned long long>(generation));
    out += buffer;
  }
  out += '}';
  return out;
}

std::string wisdom_header(std::uint64_t generation) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "{\"dcmesh_wisdom\":%d,\"kernel\":\"%s\",\"gen\":%llu}",
                kWisdomFormatVersion, std::string(kKernelVersion).c_str(),
                static_cast<unsigned long long>(generation));
  return buffer;
}

bool wisdom_header_ok(std::string_view line) {
  const auto version = json_number_field(line, "dcmesh_wisdom");
  if (!version || *version != kWisdomFormatVersion) return false;
  const auto kernel = json_string_field(line, "kernel");
  return kernel && *kernel == kKernelVersion;
}

std::optional<wisdom_entry> parse_wisdom_line(std::string_view line) {
  const auto routine = json_string_field(line, "routine");
  const auto site = json_string_field(line, "site");
  const auto cls_text = json_string_field(line, "class");
  const auto budget = json_number_field(line, "ulp_budget");
  const auto mode = json_string_field(line, "mode");
  const auto err = json_number_field(line, "err_ulp");
  if (!routine || !site || !cls_text || !budget || !mode || !err) {
    return std::nullopt;
  }
  const auto cls = parse_shape_class(*cls_text);
  if (!cls) return std::nullopt;
  wisdom_entry entry;
  entry.routine = *routine;
  entry.site = *site;
  entry.cls = *cls;
  entry.ulp_budget = *budget;
  entry.mode_token = *mode;
  entry.err_ulp = *err;
  // Fields this parser does not name (the MC/NC blocking earlier writers
  // of this format added, say) are ignored.
  // An absent "gen" (a hand-written line) reads as generation 0, which
  // merges exactly like a fresh in-memory decision.
  if (const auto gen = json_number_field(line, "gen"); gen && *gen > 0) {
    entry.generation = static_cast<std::uint64_t>(*gen);
  }
  return entry;
}

wisdom_file load_wisdom(const std::string& path) {
  wisdom_file result;
  if (path.empty()) return result;
  std::ifstream in(path);
  if (!in.is_open()) return result;
  result.existed = true;
  std::string line;
  if (!std::getline(in, line) || !wisdom_header_ok(line)) {
    result.version_ok = false;
    return result;
  }
  if (const auto gen = json_number_field(line, "gen"); gen && *gen > 0) {
    result.generation = static_cast<std::uint64_t>(*gen);
  }
  // Highest generation per key wins (ties keep the earlier line): the
  // merge writer keeps at most one line per key, but a file touched by a
  // pre-merge appender may still duplicate keys, and every sharer must
  // resolve each to the same decision.
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto entry = parse_wisdom_line(line);
    if (!entry) {
      ++result.rejected_lines;
      continue;
    }
    const std::string key = entry->key();
    wisdom_entry* existing = nullptr;
    for (auto& e : result.entries) {
      if (e.key() == key) {
        existing = &e;
        break;
      }
    }
    if (existing == nullptr) {
      result.entries.push_back(std::move(*entry));
    } else if (entry->generation > existing->generation) {
      *existing = std::move(*entry);
    }
  }
  return result;
}

bool save_wisdom(const std::string& path,
                 const std::vector<wisdom_entry>& entries,
                 std::uint64_t generation) {
  // Crash-safe rewrite (temp file + fsync + atomic rename): a run killed
  // mid-save must not destroy the wisdom accumulated by earlier runs.
  return atomic_write_file(path, [&](std::ostream& os) {
    os << wisdom_header(generation) << '\n';
    for (const auto& entry : entries) {
      os << entry.to_json() << '\n';
    }
    return static_cast<bool>(os);
  });
}

std::optional<std::uint64_t> peek_wisdom_generation(
    const std::string& path) {
  if (path.empty()) return std::nullopt;
  std::ifstream in(path);
  if (!in.is_open()) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || !wisdom_header_ok(line)) {
    return std::nullopt;
  }
  const auto gen = json_number_field(line, "gen");
  if (!gen || *gen < 0) return 0;
  return static_cast<std::uint64_t>(*gen);
}

merge_result merge_wisdom(const std::string& path,
                          const std::vector<wisdom_entry>& incoming,
                          const file_lock* held) {
  merge_result result;
  if (path.empty()) return result;
  // Serialize the read-modify-write against sibling processes.  When the
  // caller decided a key under its own lock it passes that lock in; taking
  // a second one here would block forever (flock excludes per open file
  // description, even within one process).
  std::optional<file_lock> own;
  if (held == nullptr || !held->held()) own.emplace(path);

  wisdom_file file = load_wisdom(path);
  // A stale-kernel or corrupt file is rebuilt from scratch — its
  // decisions are not comparable, so nothing in it is worth preserving.
  if (!file.version_ok) {
    file.entries.clear();
    file.generation = 0;
  }
  const std::uint64_t next_gen = file.generation + 1;
  bool changed = false;
  for (const auto& in_entry : incoming) {
    const std::string key = in_entry.key();
    wisdom_entry* existing = nullptr;
    for (auto& e : file.entries) {
      if (e.key() == key) {
        existing = &e;
        break;
      }
    }
    if (existing == nullptr) {
      file.entries.push_back(in_entry);
      file.entries.back().generation = next_gen;
      ++result.added;
      changed = true;
    } else if (in_entry.generation > 0 &&
               in_entry.generation >= existing->generation) {
      // The writer had observed the published entry (its generation is
      // from a real load) and overrides it: last writer wins.
      *existing = in_entry;
      existing->generation = next_gen;
      ++result.added;
      changed = true;
    } else {
      // A sibling published this key first; converge on its decision.
      ++result.kept;
    }
  }
  if (!changed && file.existed && file.version_ok) {
    // Nothing to write — do not burn a generation (siblings would
    // reload for no reason) and do not touch the file.
    result.ok = true;
    result.generation = file.generation;
    return result;
  }
  result.ok = save_wisdom(path, file.entries, next_gen);
  result.generation = result.ok ? next_gen : file.generation;
  return result;
}

}  // namespace dcmesh::tune
