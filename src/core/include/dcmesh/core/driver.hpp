#pragma once
// driver.hpp — the DCMESH driver: QXMD (CPU, FP64) + LFD (device, FP32/64)
// with multiple time-scale splitting.
//
// One MD step = one *series* of QD steps on the fast electronic time scale,
// followed by the FP64 SCF wave-function refresh, the ionic velocity-Verlet
// step, and a shadow-dynamics synchronization.  This is the paper's
// structure: "after every series of 500 quantum dynamical steps (LFD
// portion at FP32), we execute Self-Consistent Field (SCF) at FP64 to
// update the wave function and then proceed to the next series".

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "dcmesh/core/config.hpp"
#include "dcmesh/lfd/engine.hpp"
#include "dcmesh/qxmd/shadow.hpp"
#include "dcmesh/qxmd/verlet.hpp"
#include "dcmesh/resil/checkpoint_ring.hpp"
#include "dcmesh/trace/unitrace.hpp"

namespace dcmesh::core {

/// Summary of one completed series (MD step).
struct series_report {
  int qd_steps = 0;
  qxmd::scf_report scf;          ///< Drift repaired by the FP64 refresh.
  double ion_potential_energy = 0.0;
  double ion_kinetic_energy = 0.0;
  bool wavefunction_transferred = false;  ///< Shadow-dynamics sync result.
  /// Rollback-and-replay attempts this series needed before its step
  /// invariants held (0 = clean first pass; resilience subsystem).
  int replays = 0;
};

/// Cumulative resilience activity of one driver (DCMESH_HEALTH != off).
struct resilience_stats {
  std::uint64_t checkpoints = 0;  ///< Ring checkpoints taken.
  std::uint64_t violations = 0;   ///< Step-invariant violations observed.
  std::uint64_t rollbacks = 0;    ///< Series rolled back and replayed.
  std::string last_violation;     ///< Detail of the most recent violation.
};

/// Owns the full simulation state and advances it.
class driver {
 public:
  explicit driver(run_config config);

  /// Run one series: qd_steps_per_series QD steps, SCF refresh, MD step,
  /// shadow sync.  QD records are appended to records().
  ///
  /// When DCMESH_HEALTH != off the series is resilient: the state is
  /// checkpointed to an in-memory ring first; a step-invariant violation
  /// (engine norm drift, non-finite/unbounded observables, ekin jump)
  /// rolls the state back and replays the series with the LFD sites'
  /// precision promoted one ladder step per attempt, held for a few
  /// series before the fast mode is re-tried.  Throws std::runtime_error
  /// when replays are exhausted.
  series_report run_series();

  /// Run all configured series.  Returns the per-series reports.
  std::vector<series_report> run();

  /// Advance a single QD step (exposed for fine-grained tests/examples).
  lfd::qd_record qd_step();

  [[nodiscard]] const run_config& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<lfd::qd_record>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] const qxmd::atom_system& atoms() const noexcept {
    return atoms_;
  }
  [[nodiscard]] const qxmd::shadow_ledger& shadow() const noexcept {
    return shadow_;
  }
  [[nodiscard]] trace::unitrace& tracer() noexcept { return tracer_; }
  [[nodiscard]] const std::vector<double>& initial_band_energies()
      const noexcept {
    return band_energies_;
  }
  /// Simulated time in atomic units.
  [[nodiscard]] double time() const noexcept;

  /// Cumulative resilience activity (checkpoints, violations, rollbacks).
  [[nodiscard]] const resilience_stats& resilience() const noexcept {
    return resil_stats_;
  }

  /// Serialize the engine's propagation state (checkpoint support; the
  /// ionic state and config are handled by core::save_checkpoint).
  void save_propagation_state(std::ostream& os) const;

  /// Restore ionic + electronic state from a checkpoint; rebuilds the
  /// local potential the device Hamiltonian sees and clears records().
  void restore_propagation_state(const qxmd::atom_system& atoms,
                                 std::istream& is);

 private:
  template <typename R>
  lfd::lfd_engine<R>& engine();

  /// Rebuild the device-side local potential: ionic wells plus (when
  /// config.hartree > 0) the Poisson-solved mean field of the current
  /// electron density.
  void rebuild_device_potential();

  /// The series body (QD steps + SCF + MD + shadow sync), shared by the
  /// plain and the resilient run_series paths.
  series_report run_series_impl();

  /// Step-invariant verdict for the records appended since
  /// `series_start_record` ("" = healthy): pops the engine's violation
  /// flag, then checks each record for a bounded relative ekin jump.
  [[nodiscard]] std::string check_series_health(
      std::size_t series_start_record);

  /// Restore the newest ring checkpoint in place and truncate records()
  /// back to the checkpoint point.  Quiesces the step scheduler's pool
  /// first: no in-flight task may touch engine state across a restore.
  void rollback_to_ring();

  run_config config_;
  mesh::grid3d grid_;
  qxmd::atom_system atoms_;
  qxmd::verlet_integrator integrator_;
  qxmd::shadow_ledger shadow_;
  trace::unitrace tracer_;
  std::vector<double> band_energies_;
  // One of the two LFD precision builds, selected by config.
  std::variant<std::unique_ptr<lfd::lfd_engine<float>>,
               std::unique_ptr<lfd::lfd_engine<double>>>
      engine_;
  std::vector<lfd::qd_record> records_;
  resil::checkpoint_ring ring_{4};  ///< Rollback targets (newest wins).
  resilience_stats resil_stats_;
  std::uint64_t series_index_ = 0;  ///< Completed series (ring labels).
};

}  // namespace dcmesh::core
