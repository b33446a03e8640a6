#include "dcmesh/lfd/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "dcmesh/lfd/current.hpp"
#include "dcmesh/mesh/stencil.hpp"
#include "dcmesh/resil/health.hpp"
#include "dcmesh/sched/config.hpp"
#include "dcmesh/trace/tracer.hpp"

namespace dcmesh::lfd {

template <typename R>
lfd_engine<R>::lfd_engine(mesh::grid3d grid, lfd_options options,
                          const matrix<cdouble>& psi_init,
                          std::vector<double> occ, std::size_t nocc,
                          std::vector<double> v_loc)
    : grid_(grid),
      opt_(options),
      h_(grid, options.order, std::move(v_loc), options.pulse.polarization_axis),
      psi_(psi_init.rows(), psi_init.cols()),
      psi0_(psi_init.rows(), psi_init.cols()),
      scratch_term_(psi_init.rows(), psi_init.cols()),
      scratch_h_(psi_init.rows(), psi_init.cols()),
      g_(psi_init.cols(), psi_init.cols()),
      occ_(std::move(occ)),
      nocc_(nocc),
      ws_(psi_init.rows(), psi_init.cols(), nocc) {
  if (static_cast<std::int64_t>(psi_init.rows()) != grid.size()) {
    throw std::invalid_argument("lfd_engine: psi rows != grid size");
  }
  if (occ_.size() != psi_init.cols()) {
    throw std::invalid_argument("lfd_engine: occupation count != norb");
  }
  if (nocc_ == 0 || nocc_ >= psi_init.cols()) {
    throw std::invalid_argument("lfd_engine: need 0 < nocc < norb");
  }
  if (opt_.taylor_order < 1 || opt_.taylor_order > 8) {
    throw std::invalid_argument("lfd_engine: taylor_order out of range");
  }

  // Convert the FP64 ground state to this engine's precision.  Every
  // precision configuration starts from bit-identical FP64 data, so runs
  // differ only through the BLAS arithmetic (the paper's methodology).
  for (std::size_t i = 0; i < psi_.size(); ++i) {
    const cdouble v = psi_init.data()[i];
    psi_.data()[i] =
        std::complex<R>(static_cast<R>(v.real()), static_cast<R>(v.imag()));
    psi0_.data()[i] = psi_.data()[i];
  }

  // t = 0 baseline: the KS overlap of the unpropagated state is G ~ 1;
  // evaluate it with the composites of the step graph's stages (c = 0:
  // no correction), so the graph itself runs only in qd_step.
  auto nlp = nlp_prop<R>(psi0_, psi_, std::complex<double>(0.0, 0.0), dv());
  g_ = std::move(nlp.g);
  h_.set_field(opt_.pulse.a(0.0));
  const energy_report e0 = calc_energy<R>(h_, psi_, g_, opt_.v_nl, occ_, dv());
  eband0_ = e0.eband();
  build_step_graph();
}

template <typename R>
lfd_engine<R>::step_workspace::step_workspace(std::size_t ngrid,
                                              std::size_t norb,
                                              std::size_t nocc)
    : phase(ngrid),
      gg(norb, norb),
      t(norb, norb),
      w(norb, norb),
      m(norb, norb),
      u(norb, norb),
      subspace_weight(norb),
      drift(norb),
      local_partial(norb),
      current_partial(2 * norb) {
  if (nocc == 0 || nocc >= norb) return;  // rejected by the engine
  const std::size_t nunocc = norb - nocc;
  s = matrix<C>(nocc, nunocc);
  o = matrix<C>(nocc, nocc);
  rmat = matrix<C>(nunocc, nocc);
  population.resize(nunocc);
}

template <typename R>
void lfd_engine<R>::build_step_graph() {
  // Stages 2-5 of the step, in the serial order of nlp_prop, calc_energy,
  // remap_occ and current_density.  Edges order every writer before its
  // readers: psi_ is written by project then renorm; g_ by overlap;
  // ws_.t by kinetic; ws_.s by remap/overlap; ws_.o by moment1.  K*Psi
  // (scratch_term_) and the gradients (scratch_h_) have one writer each.
  sched::task_graph& graph = graph_;
  const auto overlap = graph.add(
      "nlp/overlap", [this] { nlp_overlap<R>(psi0_, psi_, dv(), g_); });
  const auto project = graph.add(
      "nlp/project",
      [this] {
        nlp_project<R>(psi0_, g_, {0.0, -opt_.dt * opt_.v_nl}, psi_);
      },
      {overlap});
  graph.add(
      "nlp/subspace",
      [this] { nlp_subspace<R>(g_, ws_.gg, ws_.subspace_weight); },
      {overlap});
  const auto renorm = graph.add(
      "nlp/renorm",
      [this] { ws_.drift_max = nlp_renormalize<R>(psi_, dv(), ws_.drift); },
      {project});
  const auto kinetic = graph.add(
      "energy/kinetic",
      [this] {
        ws_.ekin =
            energy_kinetic<R>(h_, psi_, occ_, dv(), scratch_term_, ws_.t);
      },
      {renorm});
  graph.add(
      "energy/local",
      [this] {
        ws_.epot = energy_local<R>(h_, psi_, occ_, dv(), ws_.local_partial);
      },
      {renorm});
  graph.add(
      "energy/nonlocal",
      [this] {
        ws_.enl = energy_nonlocal<R>(g_, opt_.v_nl, occ_, ws_.w, ws_.m);
      },
      {overlap});
  graph.add(
      "energy/band_rot",
      [this] {
        ws_.eband_rot = energy_band_rotation<R>(ws_.t, g_, occ_, ws_.u);
      },
      {kinetic});
  const auto roverlap = graph.add(
      "remap/overlap",
      [this] { remap_overlap<R>(psi0_, psi_, nocc_, dv(), ws_.s); },
      {renorm});
  const auto moment1 = graph.add(
      "remap/moment1",
      [this] { ws_.nexc = remap_moment1<R>(ws_.s, occ_, ws_.o); },
      {roverlap});
  graph.add(
      "remap/moment2",
      [this] {
        ws_.nexc_second_order = remap_moment2<R>(ws_.s, ws_.o, occ_, ws_.rmat);
      },
      {moment1});
  graph.add(
      "remap/population",
      [this] { remap_population<R>(ws_.s, occ_, ws_.population); },
      {roverlap});
  graph.add(
      "current",
      [this] {
        ws_.javg = current_density<R>(grid_, opt_.order,
                                      h_.polarization_axis(), psi_, occ_,
                                      ws_.a_now, dv(), scratch_h_,
                                      ws_.current_partial);
      },
      {renorm});
}

template <typename R>
void lfd_engine<R>::propagate_local(double a_mid) {
  h_.set_field(a_mid);

  // Stability guard: the Taylor expansion diverges if its operator norm
  // times dt is large.  The Strang variant only expands the stencil part,
  // so the potential depth does not enter its radius.
  const double bound =
      opt_.propagator == propagator_kind::strang
          ? mesh::kinetic_spectral_radius(grid_, opt_.order) +
                std::abs(a_mid) * 3.141592653589793 / grid_.spacing
          : h_.spectral_bound();
  if (bound * opt_.dt > 2.0) {
    throw std::runtime_error(
        "lfd_engine: dt too large for the propagator "
        "(||H||*dt > 2); refine dt or coarsen the mesh");
  }

  // psi <- sum_{n=0}^{N} (-i Op dt)^n / n! psi.  The recurrence is
  // sequential in n, but every term of column j depends only on column j,
  // so each team member runs whole columns: N applies and updates while
  // the column's psi, term and H-term stay in its cache.
  using part = typename hamiltonian<R>::part;
  const std::size_t ngrid = psi_.rows();
  const auto taylor_column = [&](part op, std::size_t j) {
    C* psi = psi_.data() + j * ngrid;
    C* term = scratch_term_.data() + j * ngrid;
    C* h = scratch_h_.data() + j * ngrid;
    std::copy_n(psi, ngrid, term);
    for (int n = 1; n <= opt_.taylor_order; ++n) {
      h_.apply_column(op, {term, ngrid}, {h, ngrid});
      const double scale = opt_.dt / static_cast<double>(n);
      // term = (-i dt / n) h; psi += term, as the finite branch of
      // std::complex's product (c_re = 0 is multiplied, not dropped, so
      // signed zeros match).  std::complex's NaN-recovery call (C99
      // Annex G) kept that loop scalar; it changes a result only when an
      // operand is infinite, i.e. on an already diverged step.
      const R c_re = 0;
      const R c_im = static_cast<R>(-scale);
      R* p = reinterpret_cast<R*>(psi);
      R* t = reinterpret_cast<R*>(term);
      const R* hv = reinterpret_cast<const R*>(h);
#pragma omp simd
      for (std::size_t g = 0; g < ngrid; ++g) {
        const R h_re = hv[2 * g], h_im = hv[2 * g + 1];
        const R t_re = c_re * h_re - c_im * h_im;
        const R t_im = c_re * h_im + c_im * h_re;
        t[2 * g] = t_re;
        t[2 * g + 1] = t_im;
        p[2 * g] += t_re;
        p[2 * g + 1] += t_im;
      }
    }
  };
  const long ncols = static_cast<long>(psi_.cols());

  if (opt_.propagator == propagator_kind::taylor) {
    sched::team_parallel_for(ncols, [&](long j) {
      taylor_column(part::full, static_cast<std::size_t>(j));
    });
    return;
  }

  // Strang: exp(-i D dt/2) exp(-i T dt) exp(-i D dt/2) with D = V + A^2/2
  // applied as an exact elementwise phase (unitary by construction).
  // The team body captures two pointers, so std::function keeps it
  // inline and the step allocates nothing.
  strang_phase<R>(h_, opt_.dt, ws_.phase.span());
  sched::team_parallel_for(ncols, [this, &taylor_column](long j) {
    const auto col = static_cast<std::size_t>(j);
    const std::span<C> psi{psi_.data() + col * psi_.rows(), psi_.rows()};
    multiply_phase<R>(psi, ws_.phase.span());
    taylor_column(part::kinetic_field, col);
    multiply_phase<R>(psi, ws_.phase.span());
  });
}

template <typename R>
qd_record lfd_engine<R>::qd_step() {
  trace::span step_span("lfd/qd_step", "sched");
  propagate_local(opt_.pulse.a(t_ + 0.5 * opt_.dt));

  // The measurement field is set before the graph; no node mutates h_.
  const double t_next = t_ + opt_.dt;
  ws_.a_now = opt_.pulse.a(t_next);
  h_.set_field(ws_.a_now);
  graph_.run(sched::active_pool());

  last_norm_drift_ = ws_.drift_max;
  t_ = t_next;
  ++steps_;

  const double etot = ws_.ekin + ws_.epot + ws_.enl;
  const qd_record rec{.t = t_, .ekin = ws_.ekin, .epot = ws_.epot + ws_.enl,
                      .etot = etot, .eexc = etot - eband0_, .nexc = ws_.nexc,
                      .aext = std::abs(ws_.a_now), .javg = ws_.javg};
  check_step_invariants(rec);
  return rec;
}

template <typename R>
void lfd_engine<R>::check_step_invariants(const qd_record& rec) {
  // One cached knob read when the sentinel is off; the first violation
  // wins (the driver rolls the whole series back, so later ones add
  // nothing).
  if (resil::active_health_level() == resil::health_level::off) return;
  if (!health_violation_.empty()) return;
  const resil::invariant_limits limits = resil::active_limits();
  char detail[160];
  detail[0] = '\0';
  if (!std::isfinite(last_norm_drift_) ||
      std::abs(last_norm_drift_) > limits.norm_drift_max) {
    std::snprintf(detail, sizeof(detail),
                  "norm_drift=%.3e max=%.3e t=%.4f", last_norm_drift_,
                  limits.norm_drift_max, t_);
  } else {
    const double values[] = {rec.ekin, rec.epot, rec.etot, rec.nexc,
                             rec.javg};
    static constexpr const char* kNames[] = {"ekin", "epot", "etot",
                                             "nexc", "javg"};
    for (std::size_t i = 0; i < std::size(values); ++i) {
      if (!std::isfinite(values[i]) ||
          std::abs(values[i]) > limits.value_max) {
        std::snprintf(detail, sizeof(detail), "%s=%.6g max=%.3e t=%.4f",
                      kNames[i], values[i], limits.value_max, t_);
        break;
      }
    }
  }
  if (!detail[0]) return;
  health_violation_ = detail;
  resil::record_health_event("step_invariant", "lfd/engine", detail);
}

template <typename R>
qxmd::scf_report lfd_engine<R>::refresh_scf() {
  return qxmd::scf_refresh<R>(psi_, dv());
}

template <typename R>
void lfd_engine<R>::apply_delta_kick(double kappa) {
  const int axis = h_.polarization_axis();
  const std::int64_t n_axis = axis == 0 ? grid_.nx
                              : axis == 1 ? grid_.ny
                                          : grid_.nz;
  // Phase per axis index: exp(i kappa * c), c the coordinate.
  std::vector<C> phase(static_cast<std::size_t>(n_axis));
  for (std::int64_t i = 0; i < n_axis; ++i) {
    const double angle = kappa * static_cast<double>(i) * grid_.spacing;
    phase[static_cast<std::size_t>(i)] = C(
        static_cast<R>(std::cos(angle)), static_cast<R>(std::sin(angle)));
  }
  for (std::size_t j = 0; j < psi_.cols(); ++j) {
    C* col = psi_.data() + j * psi_.rows();
    for (std::int64_t iz = 0; iz < grid_.nz; ++iz) {
      for (std::int64_t iy = 0; iy < grid_.ny; ++iy) {
        for (std::int64_t ix = 0; ix < grid_.nx; ++ix) {
          const std::int64_t idx_axis = axis == 0 ? ix
                                        : axis == 1 ? iy
                                                    : iz;
          col[grid_.index(ix, iy, iz)] *=
              phase[static_cast<std::size_t>(idx_axis)];
        }
      }
    }
  }
}

template <typename R>
void lfd_engine<R>::set_potential(std::vector<double> v_loc) {
  h_.set_potential(std::move(v_loc));
}

namespace {

// Binary checkpoint layout: magic, scalar header, then the two raw
// wave-function blocks.  Sizes are validated on load.
constexpr std::uint64_t kStateMagic = 0x44434d4553485053ull;  // "DCMESHPS"

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void read_pod(std::istream& is, T& value) {
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error("lfd_engine: truncated state stream");
}

}  // namespace

template <typename R>
void lfd_engine<R>::save_state(std::ostream& os) const {
  write_pod(os, kStateMagic);
  write_pod(os, static_cast<std::uint64_t>(sizeof(R)));
  write_pod(os, static_cast<std::uint64_t>(psi_.rows()));
  write_pod(os, static_cast<std::uint64_t>(psi_.cols()));
  write_pod(os, t_);
  write_pod(os, static_cast<std::uint64_t>(steps_));
  write_pod(os, eband0_);
  write_pod(os, last_norm_drift_);
  os.write(reinterpret_cast<const char*>(psi_.data()),
           static_cast<std::streamsize>(psi_.size() *
                                        sizeof(std::complex<R>)));
  os.write(reinterpret_cast<const char*>(psi0_.data()),
           static_cast<std::streamsize>(psi0_.size() *
                                        sizeof(std::complex<R>)));
}

template <typename R>
void lfd_engine<R>::load_state(std::istream& is) {
  std::uint64_t magic = 0, scalar = 0, rows = 0, cols = 0, steps = 0;
  read_pod(is, magic);
  if (magic != kStateMagic) {
    throw std::runtime_error("lfd_engine: bad state magic");
  }
  read_pod(is, scalar);
  if (scalar != sizeof(R)) {
    throw std::runtime_error("lfd_engine: state precision mismatch");
  }
  read_pod(is, rows);
  read_pod(is, cols);
  if (rows != psi_.rows() || cols != psi_.cols()) {
    throw std::runtime_error("lfd_engine: state shape mismatch");
  }
  read_pod(is, t_);
  read_pod(is, steps);
  steps_ = static_cast<std::size_t>(steps);
  read_pod(is, eband0_);
  read_pod(is, last_norm_drift_);
  is.read(reinterpret_cast<char*>(psi_.data()),
          static_cast<std::streamsize>(psi_.size() *
                                       sizeof(std::complex<R>)));
  is.read(reinterpret_cast<char*>(psi0_.data()),
          static_cast<std::streamsize>(psi0_.size() *
                                       sizeof(std::complex<R>)));
  if (!is) throw std::runtime_error("lfd_engine: truncated state stream");
  // A restore (rollback included) starts from a healthy state; a stale
  // violation must not re-trip the driver after replay.
  health_violation_.clear();
}

template class lfd_engine<float>;
template class lfd_engine<double>;

}  // namespace dcmesh::lfd
