#include "dcmesh/core/checkpoint.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "dcmesh/common/atomic_file.hpp"
#include "dcmesh/common/rng.hpp"
#include "dcmesh/core/config.hpp"

namespace dcmesh::core {
namespace {

constexpr std::uint64_t kCheckpointMagic = 0x44434d4553484b50ull;  // DCMESHKP
// v2: the header carries the payload size and an FNV-1a-64 checksum over
// the payload, so any corruption — a single flipped bit anywhere, or a
// truncation — is rejected with a clear error instead of silently
// poisoning a multi-day continuation run.
constexpr std::uint32_t kVersion = 2;
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 31;

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void read_pod(std::istream& is, T& value) {
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error("checkpoint: truncated stream");
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  std::uint64_t size = 0;
  read_pod(is, size);
  if (size > (1u << 20)) {
    throw std::runtime_error("checkpoint: implausible string length");
  }
  std::string s(size, '\0');
  is.read(s.data(), static_cast<std::streamsize>(size));
  if (!is) throw std::runtime_error("checkpoint: truncated stream");
  return s;
}

void write_atoms(std::ostream& os, const qxmd::atom_system& atoms) {
  write_pod(os, static_cast<std::uint64_t>(atoms.size()));
  write_pod(os, atoms.box);
  for (const qxmd::atom& a : atoms.atoms) {
    write_pod(os, static_cast<std::int32_t>(a.kind));
    write_pod(os, a.position);
    write_pod(os, a.velocity);
    write_pod(os, a.force);
  }
}

qxmd::atom_system read_atoms(std::istream& is) {
  qxmd::atom_system atoms;
  std::uint64_t count = 0;
  read_pod(is, count);
  if (count > (1u << 24)) {
    throw std::runtime_error("checkpoint: implausible atom count");
  }
  read_pod(is, atoms.box);
  atoms.atoms.resize(count);
  for (qxmd::atom& a : atoms.atoms) {
    std::int32_t kind = 0;
    read_pod(is, kind);
    if (kind < 0 || kind > 2) {
      throw std::runtime_error("checkpoint: bad species");
    }
    a.kind = static_cast<qxmd::species>(kind);
    read_pod(is, a.position);
    read_pod(is, a.velocity);
    read_pod(is, a.force);
  }
  return atoms;
}

/// Read the v2 header, the payload, and verify the checksum.  Throws on
/// any mismatch — a corrupted checkpoint must never restore.
std::string read_verified_payload(std::istream& is) {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  read_pod(is, magic);
  if (magic != kCheckpointMagic) {
    throw std::runtime_error("checkpoint: bad magic");
  }
  read_pod(is, version);
  if (version != kVersion) {
    throw std::runtime_error("checkpoint: unsupported version");
  }
  std::uint64_t size = 0, checksum = 0;
  read_pod(is, size);
  if (size > kMaxPayloadBytes) {
    throw std::runtime_error("checkpoint: implausible payload size");
  }
  read_pod(is, checksum);
  std::string payload(static_cast<std::size_t>(size), '\0');
  is.read(payload.data(), static_cast<std::streamsize>(size));
  if (!is) throw std::runtime_error("checkpoint: truncated stream");
  if (fnv1a(payload) != checksum) {
    throw std::runtime_error(
        "checkpoint: checksum mismatch (corrupted checkpoint)");
  }
  return payload;
}

}  // namespace

std::string serialize_checkpoint_payload(const driver& sim) {
  // Serialize into a buffer first: the checksum covers the whole payload.
  std::ostringstream payload_os(std::ios::binary);
  write_string(payload_os, to_deck(sim.config()));
  write_atoms(payload_os, sim.atoms());
  sim.save_propagation_state(payload_os);
  if (!payload_os) throw std::runtime_error("checkpoint: serialize failed");
  return std::move(payload_os).str();
}

std::string seal_checkpoint(const std::string& payload) {
  std::ostringstream os(std::ios::binary);
  write_pod(os, kCheckpointMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint64_t>(payload.size()));
  write_pod(os, fnv1a(payload));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!os) throw std::runtime_error("checkpoint: seal failed");
  return std::move(os).str();
}

void save_checkpoint(const driver& sim, std::ostream& os) {
  const std::string blob = seal_checkpoint(serialize_checkpoint_payload(sim));
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!os) throw std::runtime_error("checkpoint: write failed");
}

void save_checkpoint_file(const driver& sim, const std::string& path) {
  // Crash-safe: write to a temp file beside `path`, fsync, atomically
  // rename — a crash mid-save leaves the previous checkpoint intact, and
  // a reader never sees a half-written file.
  const bool ok = atomic_write_file(path, [&](std::ostream& os) {
    save_checkpoint(sim, os);
    return static_cast<bool>(os);
  });
  if (!ok) throw std::runtime_error("checkpoint: cannot write " + path);
}

driver load_checkpoint(std::istream& is) {
  std::istringstream payload(read_verified_payload(is), std::ios::binary);
  std::istringstream deck(read_string(payload));
  driver sim(parse_config(deck));
  const qxmd::atom_system atoms = read_atoms(payload);
  sim.restore_propagation_state(atoms, payload);
  return sim;
}

driver load_checkpoint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  return load_checkpoint(is);
}

void restore_checkpoint(driver& sim, std::istream& is) {
  std::istringstream payload(read_verified_payload(is), std::ios::binary);
  const std::string deck = read_string(payload);
  if (deck != to_deck(sim.config())) {
    throw std::runtime_error(
        "checkpoint: config mismatch (checkpoint was written by a "
        "different run configuration)");
  }
  const qxmd::atom_system atoms = read_atoms(payload);
  sim.restore_propagation_state(atoms, payload);
}

}  // namespace dcmesh::core
