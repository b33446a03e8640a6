#include "dcmesh/farm/manifest.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "dcmesh/common/atomic_file.hpp"
#include "dcmesh/common/file_lock.hpp"
#include "dcmesh/common/rng.hpp"
#include "dcmesh/trace/tracer.hpp"  // JSON line helpers

namespace dcmesh::farm {
namespace {

using trace::json_number_field;
using trace::json_string_field;

constexpr std::string_view kCrcMarker = ",\"crc\":\"";

}  // namespace

const manifest_entry* campaign_manifest::find(
    std::string_view run_id) const {
  for (const auto& entry : entries) {
    if (entry.run_id == run_id) return &entry;
  }
  return nullptr;
}

std::string manifest_header() {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "{\"dcmesh_campaign\":%d}",
                kManifestFormatVersion);
  return buffer;
}

bool manifest_header_ok(std::string_view line) {
  const auto version = json_number_field(line, "dcmesh_campaign");
  return version && *version == kManifestFormatVersion;
}

std::string manifest_line(const manifest_entry& entry) {
  std::string out = "{\"run\":\"";
  trace::append_json_escaped(out, entry.run_id);
  out += "\",\"status\":\"";
  trace::append_json_escaped(out, entry.status);
  char buffer[128];
  std::snprintf(buffer, sizeof buffer,
                "\",\"exit\":%d,\"seconds\":%.6g,\"calibration_gemms\":%llu",
                entry.exit_code, entry.seconds,
                static_cast<unsigned long long>(entry.calibration_gemms));
  out += buffer;
  // The checksum covers everything before the crc field, so a torn tail
  // or a flipped byte anywhere in the line fails verification.
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(fnv1a(out)));
  out += kCrcMarker;
  out += buffer;
  out += "\"}";
  return out;
}

std::optional<manifest_entry> parse_manifest_line(std::string_view line) {
  const auto crc_pos = line.find(kCrcMarker);
  if (crc_pos == std::string_view::npos) return std::nullopt;
  const auto stored_crc = json_string_field(line, "crc");
  if (!stored_crc) return std::nullopt;
  char expected[32];
  std::snprintf(expected, sizeof expected, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a(line.substr(0, crc_pos))));
  if (*stored_crc != expected) return std::nullopt;

  const auto run = json_string_field(line, "run");
  const auto status = json_string_field(line, "status");
  const auto exit_code = json_number_field(line, "exit");
  const auto seconds = json_number_field(line, "seconds");
  const auto calibs = json_number_field(line, "calibration_gemms");
  if (!run || !status || !exit_code || !seconds || !calibs) {
    return std::nullopt;
  }
  manifest_entry entry;
  entry.run_id = *run;
  entry.status = *status;
  entry.exit_code = static_cast<int>(*exit_code);
  entry.seconds = *seconds;
  entry.calibration_gemms = static_cast<std::uint64_t>(*calibs);
  return entry;
}

campaign_manifest load_manifest(const std::string& path) {
  campaign_manifest result;
  if (path.empty()) return result;
  std::ifstream in(path);
  if (!in.is_open()) return result;
  result.existed = true;
  std::string line;
  if (!std::getline(in, line) || !manifest_header_ok(line)) {
    result.version_ok = false;
    return result;
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto entry = parse_manifest_line(line);
    if (!entry) {
      ++result.rejected_lines;
      continue;
    }
    // Last entry per run id wins: a retried run supersedes its failure.
    bool replaced = false;
    for (auto& existing : result.entries) {
      if (existing.run_id == entry->run_id) {
        existing = std::move(*entry);
        replaced = true;
        break;
      }
    }
    if (!replaced) result.entries.push_back(std::move(*entry));
  }
  return result;
}

bool record_run(const std::string& path, const manifest_entry& entry) {
  if (path.empty()) return false;
  // The runner parent is normally the sole writer, but the lock makes
  // two campaigns pointed at one output directory merely slow instead
  // of corrupting each other.
  const file_lock lock(path);
  campaign_manifest manifest = load_manifest(path);
  if (!manifest.version_ok) {
    manifest.entries.clear();  // foreign/corrupt: rebuild
  }
  bool replaced = false;
  for (auto& existing : manifest.entries) {
    if (existing.run_id == entry.run_id) {
      existing = entry;
      replaced = true;
      break;
    }
  }
  if (!replaced) manifest.entries.push_back(entry);
  return atomic_write_file(path, [&](std::ostream& os) {
    os << manifest_header() << '\n';
    for (const auto& e : manifest.entries) {
      os << manifest_line(e) << '\n';
    }
    return static_cast<bool>(os);
  });
}

}  // namespace dcmesh::farm
