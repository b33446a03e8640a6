#pragma once
// remap_occ.hpp — remap wave functions to occupation numbers (Sec. V-A).
//
// nexc, the number of excited electrons, is computed from the overlap of
// the propagated occupied orbitals with the *unoccupied* reference
// manifold.  The paper's Table VII documents the central GEMM here:
// m = Nocc (128 for the 40-atom system), n = Norb - Nocc, k = Ngrid.
// Three BLAS calls (7-9 of the QD step's 9).

#include <complex>
#include <span>
#include <vector>

#include "dcmesh/common/matrix.hpp"

namespace dcmesh::lfd {

/// Outputs of the occupation remap.
struct remap_report {
  /// Number of excited electrons: sum_i f_i (S S^H)_ii, the occupied
  /// population leaked into the unoccupied reference manifold.
  double nexc = 0.0;
  /// Second-order excitation moment sum_i f_i (O^2)_ii — the surface-
  /// hopping normalization correction (>= 0, ~nexc^2/Nocc for weak leak).
  double nexc_second_order = 0.0;
  /// Remapped population per unoccupied reference orbital (size
  /// norb - nocc): n_u = sum_i f_i |S_iu|^2.  Sums to nexc.
  std::vector<double> unocc_population;
};

/// Compute the occupation remap.
/// `psi0` reference orbitals (columns >= nocc form the unoccupied
/// manifold), `psi` propagated orbitals (columns < nocc are occupied),
/// `occ` the occupation numbers, `dv` the mesh volume element.
template <typename R>
[[nodiscard]] remap_report remap_occ(const matrix<std::complex<R>>& psi0,
                                     const matrix<std::complex<R>>& psi,
                                     std::span<const double> occ,
                                     std::size_t nocc, double dv);

// --- stage entry points -------------------------------------------------
// remap_occ() composes exactly these four stages over buffers it
// allocates; the engine's step graph runs them as separate nodes over its
// step workspace (moment1/population both fan out from overlap; moment2
// chains after moment1).

/// BLAS call 7 (Table VII's GEMM): s = dv * Psi_occ^H(t) * Psi0_unocc.
/// `s` must be nocc x (norb - nocc).
template <typename R>
void remap_overlap(const matrix<std::complex<R>>& psi0,
                   const matrix<std::complex<R>>& psi, std::size_t nocc,
                   double dv, matrix<std::complex<R>>& s);

/// BLAS call 8 (O = S S^H) + diagonal; `o` must be nocc x nocc.
/// Returns nexc.
template <typename R>
double remap_moment1(const matrix<std::complex<R>>& s,
                     std::span<const double> occ,
                     matrix<std::complex<R>>& o);

/// BLAS call 9 (Rmat = S^H O, `rmat` (norb - nocc) x nocc) + contraction;
/// returns the second-order excitation moment.
template <typename R>
[[nodiscard]] double remap_moment2(const matrix<std::complex<R>>& s,
                                   const matrix<std::complex<R>>& o,
                                   std::span<const double> occ,
                                   matrix<std::complex<R>>& rmat);

/// Per-unoccupied-orbital population (level-1 work on S) into
/// `population` (size norb - nocc); sums to nexc.
template <typename R>
void remap_population(const matrix<std::complex<R>>& s,
                      std::span<const double> occ,
                      std::span<double> population);

}  // namespace dcmesh::lfd
