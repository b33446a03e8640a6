#pragma once
// checkpoint_ring.hpp — a bounded in-memory ring of checkpoint blobs.
//
// The rollback half of the resilience subsystem: core::driver serializes
// itself (core::save_checkpoint, checksummed format) into a blob at series
// boundaries and pushes it here; when a step-level invariant trips, the
// driver restores the latest slot in place and replays the series.  The
// ring is deliberately generic — it stores opaque byte blobs with two
// integer labels — so resil does not depend on core (blas sits between
// them in the link order).
//
// The ring itself is NOT internally synchronized: the driver pushes and
// restores on its own thread, and quiesces the pool before a restore.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dcmesh::resil {

/// One ring slot: an opaque serialized state plus caller-defined labels
/// (the driver uses label = series index, aux = record-log length at the
/// checkpoint, so rollback can truncate its observable history too).
struct ring_slot {
  std::uint64_t label = 0;
  std::uint64_t aux = 0;
  std::string blob;
};

/// Fixed-capacity ring; push evicts the oldest slot once full.
class checkpoint_ring {
 public:
  explicit checkpoint_ring(std::size_t capacity = 4);

  /// Append a checkpoint, evicting the oldest when at capacity.
  void push(std::uint64_t label, std::uint64_t aux, std::string blob);

  /// Most recent slot; nullptr when empty.  Stays valid until the next
  /// push/drop/clear.
  [[nodiscard]] const ring_slot* latest() const noexcept;

  /// Discard the most recent slot (fall back to an older checkpoint when
  /// a restore from the latest one keeps failing).
  void drop_latest() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }
  /// Total bytes held across all slots.
  [[nodiscard]] std::size_t bytes() const noexcept;

  void clear() noexcept;

 private:
  std::vector<ring_slot> slots_;
  std::size_t next_ = 0;   ///< Slot the next push writes.
  std::size_t count_ = 0;  ///< Populated slots.
};

}  // namespace dcmesh::resil
