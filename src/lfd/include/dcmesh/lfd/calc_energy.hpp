#pragma once
// calc_energy.hpp — "BLASified" energy evaluation (paper Sec. V-A).
//
// The kinetic energy is computed through a GEMM on the Ngrid x Norb
// wave-function matrix (call 4 of the QD step's 9); the nonlocal energy is
// evaluated in the KS subspace from the overlap G produced by nlp_prop
// (calls 5-6).  The local potential energy is a mesh reduction (not BLAS),
// exactly as in DCMESH where only the nonlocal pieces are BLASified.

#include <complex>
#include <span>

#include "dcmesh/common/matrix.hpp"
#include "dcmesh/lfd/hamiltonian.hpp"

namespace dcmesh::lfd {

/// Energies in Hartree (electronic part only; the driver adds ionic terms).
struct energy_report {
  double ekin = 0.0;   ///< Electronic kinetic energy (BLAS call 4).
  double epot = 0.0;   ///< Local potential energy (mesh reduction).
  double enl = 0.0;    ///< Nonlocal energy in the KS subspace (call 5).
  double eband_rot = 0.0;  ///< Subspace-rotated band energy (call 6).
  [[nodiscard]] double eband() const noexcept { return ekin + epot + enl; }
};

/// Evaluate the electronic energies.
///  * `h` supplies the kinetic stencil and the local potential;
///  * `g` is the KS overlap from this step's nlp_prop;
///  * `lambda_nl` is the nonlocal projector strength (Hartree);
///  * `occ[j]` the occupation of orbital j; `dv` the mesh volume element.
template <typename R>
[[nodiscard]] energy_report calc_energy(const hamiltonian<R>& h,
                                        const matrix<std::complex<R>>& psi,
                                        const matrix<std::complex<R>>& g,
                                        double lambda_nl,
                                        std::span<const double> occ,
                                        double dv);

// --- stage entry points -------------------------------------------------
// calc_energy() composes exactly these four stages over buffers it
// allocates; the engine's step graph runs them as separate nodes over its
// step workspace (kinetic/local/nonlocal are mutually independent;
// band_rotation needs kinetic's T matrix).

/// Stencil K*Psi into `kpsi` (ngrid x norb, fully overwritten) + BLAS
/// call 4 (T = dv * Psi^H K Psi) + diagonal contraction.  `t` must be
/// norb x norb; returns ekin.
template <typename R>
double energy_kinetic(const hamiltonian<R>& h,
                      const matrix<std::complex<R>>& psi,
                      std::span<const double> occ, double dv,
                      matrix<std::complex<R>>& kpsi,
                      matrix<std::complex<R>>& t);

/// Local potential energy (mesh reduction, no BLAS).  `partial` (size
/// norb) receives each occupied column's reduction.
template <typename R>
[[nodiscard]] double energy_local(const hamiltonian<R>& h,
                                  const matrix<std::complex<R>>& psi,
                                  std::span<const double> occ, double dv,
                                  std::span<double> partial);

/// BLAS call 5 (M = G^H W, W = Lambda G) + diagonal; returns enl.  `w`
/// and `m` must be norb x norb.
template <typename R>
[[nodiscard]] double energy_nonlocal(const matrix<std::complex<R>>& g,
                                     double lambda_nl,
                                     std::span<const double> occ,
                                     matrix<std::complex<R>>& w,
                                     matrix<std::complex<R>>& m);

/// BLAS call 6 (U = T G into `u`) + contraction; returns eband_rot.
template <typename R>
[[nodiscard]] double energy_band_rotation(const matrix<std::complex<R>>& t,
                                          const matrix<std::complex<R>>& g,
                                          std::span<const double> occ,
                                          matrix<std::complex<R>>& u);

}  // namespace dcmesh::lfd
