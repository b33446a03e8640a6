#pragma once
// checkpoint.hpp — save/restore a running simulation.
//
// Long DCMESH campaigns (the paper's accuracy runs take ~2 days per mode
// on real hardware) need restart capability.  A checkpoint holds the run
// configuration (as a deck), the ionic state, and the engine's propagation
// state; restoring reproduces the continuation bit-for-bit under the same
// compute mode.
//
// Format v2 prefixes the payload with its size and an FNV-1a-64 checksum:
// any corruption (bit flip, truncation) is rejected at load time.  File
// saves are crash-safe — temp file + fsync + atomic rename — so a crash
// mid-save never destroys the previous checkpoint.

#include <iosfwd>
#include <string>

#include "dcmesh/core/driver.hpp"

namespace dcmesh::core {

/// Write a checkpoint of `sim` to a binary stream.
void save_checkpoint(const driver& sim, std::ostream& os);

/// Write a checkpoint to a file; throws std::runtime_error on I/O failure.
void save_checkpoint_file(const driver& sim, const std::string& path);

/// Reconstruct a driver from a checkpoint stream: the config deck is
/// parsed, the driver constructed (including its deterministic FP64 SCF
/// initialization), and then the ionic and electronic state are replaced
/// by the checkpointed ones.  Throws std::runtime_error on malformed
/// input.
[[nodiscard]] driver load_checkpoint(std::istream& is);

/// Load a checkpoint from a file.
[[nodiscard]] driver load_checkpoint_file(const std::string& path);

/// Restore a checkpoint *into an existing driver* (in place): verifies
/// the checksum and that the checkpoint's config deck matches `sim`'s,
/// then replaces the ionic and electronic state.  This is the rollback
/// path of the resilience subsystem — the driver replays a series from
/// its in-memory checkpoint ring without reconstructing itself.  Throws
/// std::runtime_error on corruption or config mismatch.
void restore_checkpoint(driver& sim, std::istream& is);

}  // namespace dcmesh::core
