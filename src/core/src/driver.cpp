#include "dcmesh/core/driver.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "dcmesh/blas/precision_policy.hpp"
#include "dcmesh/core/checkpoint.hpp"
#include "dcmesh/lfd/forces.hpp"
#include "dcmesh/lfd/init.hpp"
#include "dcmesh/lfd/potential.hpp"
#include "dcmesh/qxmd/supercell.hpp"
#include "dcmesh/resil/health.hpp"
#include "dcmesh/resil/promotion.hpp"
#include "dcmesh/sched/config.hpp"
#include "dcmesh/tune/autotuner.hpp"
#include "dcmesh/xehpc/roofline.hpp"

namespace dcmesh::core {
namespace {

mesh::fd_order to_fd_order(int order) {
  return order == 2 ? mesh::fd_order::second : mesh::fd_order::fourth;
}

/// Replay budget per series before the violation becomes fatal.  Each
/// attempt promotes the LFD sites one more mantissa-ladder step, so three
/// attempts walk BF16 all the way to BF16x3 territory.
constexpr int kMaxReplays = 3;

/// Series a rollback promotion stays active before the fast mode is
/// re-tried (graceful degradation with automatic re-escalation).
constexpr int kPromotionSeriesTtl = 2;

/// Relative ekin-jump checks divide by at least this, so a near-zero
/// early-trajectory ekin cannot alias a benign ramp-up into a violation.
constexpr double kEkinJumpFloor = 1e-6;

}  // namespace

driver::driver(run_config config)
    : config_(std::move(config)),
      grid_(mesh::grid3d::cubic(
          config_.mesh_n,
          qxmd::kPtoLatticeBohr * config_.cells_per_axis /
              static_cast<double>(config_.mesh_n))),
      atoms_(qxmd::build_pto_supercell(config_.cells_per_axis,
                                       qxmd::kPtoLatticeBohr, 0.05,
                                       config_.seed)),
      integrator_(qxmd::pair_potential{},
                  config_.dt * config_.qd_steps_per_series) {
  config_.validate();
  // Install the deck's per-site BLAS policy process-wide before any
  // level-3 call; validate() has already parse-checked it.  An empty deck
  // policy leaves whatever is installed (including DCMESH_BLAS_POLICY from
  // the environment) untouched.
  if (!config_.blas_policy.empty()) {
    blas::set_policy(blas::parse_policy(config_.blas_policy));
  }
  // Annotate GEMM spans with the Max 1550 roofline's predicted device
  // time (measured-vs-modeled per kernel).  Idempotent and cheap; uses
  // the default single-stack spec and frozen calibration.
  xehpc::install_trace_gemm_model();
  // Back AUTO policy rules with the process-wide autotuner (wisdom cached
  // under DCMESH_TUNE_CACHE); it ranks modes by the same default roofline.
  tune::install_auto_tuner();
  qxmd::seed_velocities(atoms_, config_.temperature_k, config_.seed + 1);
  integrator_.initialize(atoms_);

  // FP64 SCF initialization (QXMD) — identical for every precision run.
  trace::unitrace::scope init_scope(tracer_, "qxmd.scf_init");
  lfd::init_result init = lfd::initialize_ground_state(
      grid_, atoms_, config_.norb, config_.nocc,
      to_fd_order(config_.fd_order), config_.seed);
  band_energies_ = std::move(init.band_energies);

  lfd::lfd_options options;
  options.order = to_fd_order(config_.fd_order);
  options.dt = config_.dt;
  options.v_nl = config_.v_nl;
  options.propagator = config_.propagator == propagator_choice::strang
                           ? lfd::propagator_kind::strang
                           : lfd::propagator_kind::taylor;
  options.pulse = config_.pulse;

  auto v_loc = lfd::build_local_potential(grid_, atoms_);
  // The Hartree mean field (if enabled) is applied after construction via
  // rebuild_device_potential() — it needs the SCF density.
  if (config_.lfd_precision == lfd_precision_level::fp64) {
    engine_ = std::make_unique<lfd::lfd_engine<double>>(
        grid_, options, init.psi, init.occupations, config_.nocc,
        std::move(v_loc));
  } else {
    engine_ = std::make_unique<lfd::lfd_engine<float>>(
        grid_, options, init.psi, init.occupations, config_.nocc,
        std::move(v_loc));
  }

  // Shadow dynamics: the CPU keeps an approximate copy of the device
  // wave function; it only syncs when drift warrants (SCF boundaries).
  const auto elem_bytes =
      config_.lfd_precision == lfd_precision_level::fp64 ? 16ull : 8ull;
  shadow_.register_quantity(
      "wavefunction",
      static_cast<std::uint64_t>(grid_.size()) * config_.norb * elem_bytes,
      /*tolerance=*/1e-4);
  shadow_.register_quantity("ion_forces", atoms_.size() * 3 * 8,
                            /*tolerance=*/0.0);

  if (config_.hartree > 0.0) rebuild_device_potential();
}

void driver::rebuild_device_potential() {
  auto v = lfd::build_local_potential(grid_, atoms_);
  if (config_.hartree > 0.0) {
    const auto rho = std::visit(
        [](auto& e) {
          return lfd::electron_density(e->psi(), e->occupations());
        },
        engine_);
    const auto vh = lfd::build_hartree_potential(
        grid_,
        config_.fd_order == 2 ? mesh::fd_order::second
                              : mesh::fd_order::fourth,
        rho, config_.hartree);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] += vh[i];
  }
  std::visit([&](auto& e) { e->set_potential(std::move(v)); }, engine_);
}

template <typename R>
lfd::lfd_engine<R>& driver::engine() {
  return *std::get<std::unique_ptr<lfd::lfd_engine<R>>>(engine_);
}

double driver::time() const noexcept {
  return std::visit([](const auto& e) { return e->time(); }, engine_);
}

lfd::qd_record driver::qd_step() {
  trace::unitrace::scope scope(tracer_, "lfd.qd_step");
  lfd::qd_record record =
      std::visit([](auto& e) { return e->qd_step(); }, engine_);
  const double drift =
      std::visit([](auto& e) { return e->last_norm_drift(); }, engine_);
  shadow_.record_gpu_update("wavefunction", drift);
  records_.push_back(record);
  return record;
}

series_report driver::run_series() {
  if (resil::active_health_level() == resil::health_level::off) {
    series_report report = run_series_impl();
    ++series_index_;
    return report;
  }

  // Resilient path: checkpoint, run, verify invariants; on violation
  // roll back, promote the LFD sites' precision, replay.
  {
    std::ostringstream blob(std::ios::binary);
    save_checkpoint(*this, blob);
    ring_.push(series_index_, records_.size(), std::move(blob).str());
    ++resil_stats_.checkpoints;
  }
  const std::size_t series_start = records_.size();
  for (int attempt = 0;; ++attempt) {
    series_report report = run_series_impl();
    const std::string violation = check_series_health(series_start);
    if (violation.empty()) {
      report.replays = attempt;
      ++series_index_;
      // Healthy series: age the promotion ledger so a promoted site
      // eventually re-tries its fast mode.
      resil::tick_promotions();
      return report;
    }
    ++resil_stats_.violations;
    resil_stats_.last_violation = violation;
    if (attempt >= kMaxReplays) {
      throw std::runtime_error(
          "driver: series " + std::to_string(series_index_) +
          " failed step invariants after " + std::to_string(attempt) +
          " replays: " + violation);
    }
    rollback_to_ring();
    ++resil_stats_.rollbacks;
    char detail[96];
    std::snprintf(detail, sizeof(detail), "series=%llu attempt=%d",
                  static_cast<unsigned long long>(series_index_),
                  attempt + 1);
    resil::record_health_event("rollback", "core/driver", detail);
    // One more ladder step per attempt, held for a bounded number of
    // series.  "lfd/*" covers every tagged LFD GEMM site.
    resil::promote_sites("lfd/*", attempt + 1, kPromotionSeriesTtl);
  }
}

series_report driver::run_series_impl() {
  series_report report;
  for (int step = 0; step < config_.qd_steps_per_series; ++step) {
    qd_step();
    ++report.qd_steps;
  }

  // FP64 SCF refresh (QXMD, CPU) — the paper's truncation-error reset.
  {
    trace::unitrace::scope scope(tracer_, "qxmd.scf_refresh");
    report.scf =
        std::visit([](auto& e) { return e->refresh_scf(); }, engine_);
  }

  // Shadow sync: the CPU needs the wave function at the SCF boundary.
  report.wavefunction_transferred = shadow_.sync("wavefunction");

  // Ionic MD step on the slow time scale with the Ehrenfest back-action of
  // the (just-refreshed) electron density, then rebuild the potential the
  // device Hamiltonian sees.
  {
    trace::unitrace::scope scope(tracer_, "qxmd.md_step");
    const auto rho = std::visit(
        [](auto& e) {
          return lfd::electron_density(e->psi(), e->occupations());
        },
        engine_);
    const auto electronic = lfd::ehrenfest_forces(grid_, atoms_, rho);
    const qxmd::extra_force_fn ehrenfest = [&](qxmd::atom_system& system) {
      for (std::size_t a = 0; a < system.size(); ++a) {
        for (int axis = 0; axis < 3; ++axis) {
          system.atoms[a].force[static_cast<std::size_t>(axis)] +=
              electronic[a][static_cast<std::size_t>(axis)];
        }
      }
    };
    report.ion_potential_energy = integrator_.step(atoms_, ehrenfest);
    report.ion_kinetic_energy = atoms_.kinetic_energy();
    shadow_.sync("ion_forces", /*force=*/true);
  }
  {
    trace::unitrace::scope scope(tracer_, "lfd.update_potential");
    rebuild_device_potential();
  }
  return report;
}

std::string driver::check_series_health(std::size_t series_start_record) {
  // Engine-level invariants (norm conservation, finite/bounded record
  // observables) are checked per QD step; pop the first violation.
  std::string violation = std::visit(
      [](auto& e) { return e->take_health_violation(); }, engine_);
  if (!violation.empty()) return violation;

  // Driver-level invariant: bounded relative ekin change between
  // consecutive QD steps of this series.  A finite-but-blown GEMM result
  // (e.g. an injected scale fault) passes the per-call finite scan and
  // shows up here as a kinetic-energy discontinuity.
  const resil::invariant_limits limits = resil::active_limits();
  for (std::size_t i = series_start_record + 1; i < records_.size(); ++i) {
    const double prev = records_[i - 1].ekin;
    const double cur = records_[i].ekin;
    const double rel =
        std::abs(cur - prev) / std::max(std::abs(prev), kEkinJumpFloor);
    if (rel > limits.ekin_jump_rel) {
      char detail[128];
      std::snprintf(detail, sizeof(detail),
                    "ekin_jump=%.3e max=%.3e t=%.4f", rel,
                    limits.ekin_jump_rel, records_[i].t);
      resil::record_health_event("step_invariant", "core/driver", detail);
      return detail;
    }
  }
  return {};
}

void driver::rollback_to_ring() {
  // No in-flight task (stray step graph stub) may touch engine state
  // across the restore — quiesce the pool to a hard barrier.
  sched::quiesce_active_pool();
  const resil::ring_slot* slot = ring_.latest();
  if (slot == nullptr) {
    throw std::runtime_error("driver: rollback with empty checkpoint ring");
  }
  // restore_propagation_state clears records(); preserve the history up
  // to the checkpoint point so the observable log stays contiguous.
  std::vector<lfd::qd_record> kept(
      records_.begin(),
      records_.begin() + static_cast<std::ptrdiff_t>(slot->aux));
  std::istringstream is(slot->blob, std::ios::binary);
  restore_checkpoint(*this, is);
  records_ = std::move(kept);
}

std::vector<series_report> driver::run() {
  std::vector<series_report> reports;
  reports.reserve(static_cast<std::size_t>(config_.series));
  for (int s = 0; s < config_.series; ++s) {
    reports.push_back(run_series());
  }
  return reports;
}

void driver::save_propagation_state(std::ostream& os) const {
  std::visit([&os](const auto& e) { e->save_state(os); }, engine_);
}

void driver::restore_propagation_state(const qxmd::atom_system& atoms,
                                       std::istream& is) {
  if (atoms.size() != atoms_.size()) {
    throw std::runtime_error("driver: checkpoint atom count mismatch");
  }
  atoms_ = atoms;  // positions, velocities, AND forces — the integrator's
                   // next half-kick uses the checkpointed forces verbatim,
                   // so continuation is bit-exact.
  std::visit([&is](auto& e) { e->load_state(is); }, engine_);
  rebuild_device_potential();
  records_.clear();
}

template lfd::lfd_engine<float>& driver::engine<float>();
template lfd::lfd_engine<double>& driver::engine<double>();

}  // namespace dcmesh::core
