#pragma once
// engine.hpp — the LFD quantum-dynamics engine (one QD step = 9 BLAS calls).
//
// Owns the propagated wave-function matrix Psi(t), the reference Psi(0),
// the local Hamiltonian, and the laser pulse; advances one quantum-
// dynamical step at a time.  A step is:
//   1. 4th-order Taylor split-step under the local Hamiltonian at the
//      midpoint field A(t + dt/2) (stencil kernels — the non-BLAS part);
//   2. nonlocal correction nlp_prop           (BLAS calls 1-3);
//   3. calc_energy                            (BLAS calls 4-6);
//   4. remap_occ                              (BLAS calls 7-9);
//   5. current density (stencil reduction).
// Steps 2-5 are one task_graph of 13 nodes, built at construction over
// a step workspace sized up front, and run once per step: serially in
// insertion order (steps 2-5 as listed) or on the DCMESH_SCHED pool.  A
// warm step allocates only in its nine BLAS call records.
// Templated over the real scalar: lfd_engine<float> is the paper's FP32 LFD
// whose BLAS precision is steered by MKL_BLAS_COMPUTE_MODE;
// lfd_engine<double> is the FP64 reference build.

#include <complex>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "dcmesh/common/aligned.hpp"
#include "dcmesh/common/matrix.hpp"
#include "dcmesh/lfd/calc_energy.hpp"
#include "dcmesh/lfd/hamiltonian.hpp"
#include "dcmesh/lfd/nlp_prop.hpp"
#include "dcmesh/lfd/remap_occ.hpp"
#include "dcmesh/mesh/laser.hpp"
#include "dcmesh/qxmd/atoms.hpp"
#include "dcmesh/qxmd/scf.hpp"
#include "dcmesh/sched/task_graph.hpp"

namespace dcmesh::lfd {

/// Local-propagator family.
enum class propagator_kind {
  taylor,  ///< Plain order-N Taylor expansion of exp(-i H dt).
  strang,  ///< Strang split: exact phase for the diagonal part
           ///< (V + A^2/2), Taylor for the stencil part — exactly unitary
           ///< in the potential and stable regardless of well depth.
};

/// Static configuration of the LFD engine.
struct lfd_options {
  mesh::fd_order order = mesh::fd_order::fourth;
  double dt = 0.02;        ///< QD time step (atomic time units; Table III).
  double v_nl = 0.08;      ///< Nonlocal projector strength (Hartree).
  int taylor_order = 4;    ///< Order of the local-propagator expansion.
  propagator_kind propagator = propagator_kind::taylor;
  mesh::laser_pulse pulse; ///< External laser field.
};

/// One QD step's observables — the output columns the artifact describes:
/// "ekin, epot, etot, eexc, nexc, Aext, and javg".
struct qd_record {
  double t = 0.0;      ///< Simulation time (a.t.u.).
  double ekin = 0.0;   ///< Electronic kinetic energy (Hartree).
  double epot = 0.0;   ///< Local + nonlocal potential energy (Hartree).
  double etot = 0.0;   ///< Electronic band energy (Hartree).
  double eexc = 0.0;   ///< Excitation energy etot(t) - etot(0) (Hartree).
  double nexc = 0.0;   ///< Number of excited electrons.
  double aext = 0.0;   ///< |A(t)| external vector potential (a.u.).
  double javg = 0.0;   ///< Average current density (a.u.).
};

template <typename R>
class lfd_engine {
  using C = std::complex<R>;

 public:
  /// `psi_init` is the FP64 ground state from the QXMD SCF (converted to
  /// this engine's precision); `occ` the occupation numbers; `nocc` the
  /// occupied count.  The constructor records the t = 0 energy baseline
  /// through the composite nlp_prop/calc_energy, not the step graph.
  lfd_engine(mesh::grid3d grid, lfd_options options,
             const matrix<cdouble>& psi_init, std::vector<double> occ,
             std::size_t nocc, std::vector<double> v_loc);
  // The step graph's nodes capture `this`.
  lfd_engine(const lfd_engine&) = delete;
  lfd_engine& operator=(const lfd_engine&) = delete;

  /// Advance one QD step and return its observables: the local
  /// propagation, then one run of the step graph on
  /// sched::active_pool() (serial when null; the same bits either way).
  qd_record qd_step();

  /// FP64 SCF refresh (call between series of 500 QD steps): repairs
  /// orthonormality drift accumulated by reduced-precision BLAS.
  qxmd::scf_report refresh_scf();

  /// Impulsive momentum kick exp(i kappa c) along the polarization axis
  /// (c the mesh coordinate) — the standard delta-kick protocol for
  /// linear-response absorption spectra.  Exactly norm-preserving.
  void apply_delta_kick(double kappa);

  /// Replace the local potential after the ions move (QXMD MD step).
  void set_potential(std::vector<double> v_loc);

  [[nodiscard]] double time() const noexcept { return t_; }
  [[nodiscard]] std::size_t qd_steps_taken() const noexcept { return steps_; }
  [[nodiscard]] const matrix<C>& psi() const noexcept { return psi_; }
  [[nodiscard]] const matrix<C>& psi0() const noexcept { return psi0_; }
  [[nodiscard]] const hamiltonian<R>& h() const noexcept { return h_; }
  [[nodiscard]] std::size_t nocc() const noexcept { return nocc_; }
  [[nodiscard]] const std::vector<double>& occupations() const noexcept {
    return occ_;
  }
  [[nodiscard]] double dv() const noexcept { return grid_.dv(); }
  /// Norm drift reported by the latest nlp_prop (shadow-ledger metric).
  [[nodiscard]] double last_norm_drift() const noexcept {
    return last_norm_drift_;
  }

  /// Pop the first step-invariant violation observed since the last call
  /// ("" = healthy).  Armed only when DCMESH_HEALTH != off: each qd_step
  /// checks norm conservation against the resil limits and that the
  /// record's observables are finite and bounded.  The driver polls this
  /// at series boundaries to decide rollback (resil/health.hpp).
  [[nodiscard]] std::string take_health_violation() {
    return std::exchange(health_violation_, std::string{});
  }

  /// Serialize the propagation state (t, step count, energy baseline,
  /// Psi(t), Psi(0)) to a binary stream — checkpoint support.
  void save_state(std::ostream& os) const;

  /// Restore state written by save_state.  The engine must have been
  /// constructed with the same grid/norb (sizes are validated); throws
  /// std::runtime_error on mismatch or truncated input.
  void load_state(std::istream& is);

 private:
  /// What the step graph's nodes write besides psi_ and g_, sized at
  /// construction.  K*Psi and the current's gradients borrow
  /// scratch_term_ and scratch_h_, idle once propagate_local returns.
  struct step_workspace {
    step_workspace(std::size_t ngrid, std::size_t norb, std::size_t nocc);
    aligned_buffer<C> phase;      ///< Strang half-step phase (ngrid).
    matrix<C> gg;                 ///< nlp_subspace's G^H G.
    matrix<C> t, w, m, u;         ///< calc_energy's norb x norb products.
    matrix<C> s, o, rmat;         ///< remap_occ's S, O and S^H O.
    std::vector<double> subspace_weight, drift, population;
    std::vector<double> local_partial, current_partial;
    double a_now = 0.0;  ///< Field at the step's end (input).
    double drift_max = 0.0, ekin = 0.0, epot = 0.0, enl = 0.0, javg = 0.0;
    double eband_rot = 0.0, nexc = 0.0, nexc_second_order = 0.0;
  };

  void propagate_local(double a_mid);
  void build_step_graph();
  void check_step_invariants(const qd_record& rec);

  mesh::grid3d grid_;
  lfd_options opt_;
  hamiltonian<R> h_;
  matrix<C> psi_;
  matrix<C> psi0_;
  matrix<C> scratch_term_;
  matrix<C> scratch_h_;
  matrix<C> g_;  ///< Latest KS overlap from nlp_prop.
  std::vector<double> occ_;
  std::size_t nocc_;
  step_workspace ws_;
  sched::task_graph graph_{"lfd/qd_step"};
  double t_ = 0.0;
  std::size_t steps_ = 0;
  double eband0_ = 0.0;
  double last_norm_drift_ = 0.0;
  std::string health_violation_;  ///< First unpopped invariant violation.
};

}  // namespace dcmesh::lfd
