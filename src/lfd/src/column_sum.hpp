#pragma once
// column_sum.hpp — per-column mesh reductions on the kernel team, and
// their column-order sum (internal).

#include <cstddef>

#include "dcmesh/sched/config.hpp"

namespace dcmesh::lfd::detail {

/// Meshes of fewer points than this (columns x grid points) reduce their
/// columns inline: below it a team fork costs more than the work (the
/// tiny preset's 8 x 8^3 mesh).
inline constexpr std::size_t kTeamMinPoints = std::size_t{1} << 15;

/// Runs reduce(j) for each of `norb` columns of `ngrid` points, on the
/// kernel team when the mesh is large enough to pay for the fork.  Each
/// column writes only its own partial, so where it runs changes no bits.
template <typename F>
void for_each_column(std::size_t norb, std::size_t ngrid, F&& reduce) {
  if (norb * ngrid < kTeamMinPoints) {
    for (std::size_t j = 0; j < norb; ++j) reduce(j);
    return;
  }
  sched::team_parallel_for(static_cast<long>(norb), [&](long j) {
    reduce(static_cast<std::size_t>(j));
  });
}

/// acc + occ * partial * dv: one column's term of an occupation-weighted
/// mesh sum, added in column order once every column is reduced.  Kept
/// out of line and opaque to the optimizer, so the sum is compiled as it
/// was inside the serial column loop (one fused multiply-add exactly
/// where the build contracts that loop), never as a vectorized reduction
/// with separate roundings.
[[gnu::noipa]] inline double add_column(double acc, double occ,
                                        double partial, double dv) noexcept {
  return acc + occ * partial * dv;
}

}  // namespace dcmesh::lfd::detail
