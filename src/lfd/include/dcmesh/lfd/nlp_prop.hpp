#pragma once
// nlp_prop.hpp — nonlocal correction for time propagation (paper Eq. (1)).
//
// "Among the most time-intensive portions of the entire LFD portion of the
// DCMESH codebase is the nonlocal correction for time propagation of
// electronic wave functions" (Sec. IV-D).  The correction is cast into
// matrix form in the Kohn-Sham vector space:
//
//     Psi(t) <- Psi(t) + c * Psi(0) * [Psi^H(0) Psi(t)]
//
// i.e. a first-order propagator for the nonlocal operator v_nl * P0 (P0
// the projector onto the initial KS subspace), with c = -i dt v_nl.
// Three BLAS calls per invocation (calls 1-3 of the 9 per QD step).

#include <complex>
#include <span>
#include <vector>

#include "dcmesh/common/matrix.hpp"

namespace dcmesh::lfd {

/// Outputs of one nonlocal propagation step.
template <typename R>
struct nlp_result {
  /// G = dv * Psi0^H Psi(t): the KS-subspace overlap (reused by
  /// calc_energy's nonlocal-energy GEMMs).
  matrix<std::complex<R>> g;
  /// Per-orbital weight inside the initial subspace, diag(G^H G) — from
  /// BLAS call 3.  Drifts below 1 as population leaves the subspace.
  std::vector<double> subspace_weight;
  /// Max |column norm - 1| after the correction (renormalization applied).
  double norm_drift = 0.0;
};

/// Apply the nonlocal correction in place.  `c` is the complex propagation
/// coefficient (-i dt v_nl); `dv` the mesh volume element making G an
/// orthonormal-basis overlap.  Columns are renormalized afterwards (the
/// Taylor + first-order correction is not exactly unitary).
template <typename R>
[[nodiscard]] nlp_result<R> nlp_prop(const matrix<std::complex<R>>& psi0,
                                     matrix<std::complex<R>>& psi,
                                     std::complex<double> c, double dv);

// --- stage entry points -------------------------------------------------
// nlp_prop() is exactly the composition of these four stages, in order,
// over buffers it allocates; the engine's step graph runs them as
// separate nodes over its step workspace (subspace may overlap project;
// renormalize waits on project).

/// BLAS call 1: g = dv * Psi0^H Psi(t).  `g` must be norb x norb.
template <typename R>
void nlp_overlap(const matrix<std::complex<R>>& psi0,
                 const matrix<std::complex<R>>& psi, double dv,
                 matrix<std::complex<R>>& g);

/// BLAS call 2: Psi += c * Psi0 * g  (in place).
template <typename R>
void nlp_project(const matrix<std::complex<R>>& psi0,
                 const matrix<std::complex<R>>& g, std::complex<double> c,
                 matrix<std::complex<R>>& psi);

/// BLAS call 3 (o = g^H g, norb x norb) + diagonal extraction:
/// weight[j] = o_jj, `weight` of size norb.
template <typename R>
void nlp_subspace(const matrix<std::complex<R>>& g,
                  matrix<std::complex<R>>& o, std::span<double> weight);

/// Column renormalization (level-1 BLAS); returns max |norm - 1|.
/// `drift` (size norb) receives each column's |norm - 1|.
template <typename R>
double nlp_renormalize(matrix<std::complex<R>>& psi, double dv,
                       std::span<double> drift);

}  // namespace dcmesh::lfd
