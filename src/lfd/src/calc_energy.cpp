#include "dcmesh/lfd/calc_energy.hpp"

#include <atomic>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/trace/tracer.hpp"

namespace dcmesh::lfd {
namespace {

/// K*Psi storage reused across steps.  The ngrid x norb temporary is
/// fully overwritten by the stencil, so reuse changes no bits; allocating
/// it every step instead leaves the heap fragmented (untrimmed free
/// memory the process's peak RSS counts).  One caller at a time borrows
/// the cached matrix; a concurrent or nested caller gets its own.
template <typename C>
class kpsi_scratch {
 public:
  kpsi_scratch(std::size_t rows, std::size_t cols)
      : borrowed_(!busy().exchange(true, std::memory_order_acquire)) {
    matrix<C>& m = borrowed_ ? cached() : own_;
    if (m.rows() != rows || m.cols() != cols) m = matrix<C>(rows, cols);
  }
  ~kpsi_scratch() {
    if (borrowed_) busy().store(false, std::memory_order_release);
  }
  kpsi_scratch(const kpsi_scratch&) = delete;
  kpsi_scratch& operator=(const kpsi_scratch&) = delete;

  [[nodiscard]] matrix<C>& get() noexcept {
    return borrowed_ ? cached() : own_;
  }

 private:
  static std::atomic<bool>& busy() noexcept {
    static std::atomic<bool> flag{false};
    return flag;
  }
  static matrix<C>& cached() noexcept {
    static matrix<C> m;
    return m;
  }

  bool borrowed_;
  matrix<C> own_;
};

}  // namespace

template <typename R>
double energy_kinetic(const hamiltonian<R>& h,
                      const matrix<std::complex<R>>& psi,
                      std::span<const double> occ, double dv,
                      matrix<std::complex<R>>& t) {
  using C = std::complex<R>;
  const std::size_t ngrid = psi.rows();
  const std::size_t norb = psi.cols();
  // K Psi via the stencil, then BLAS call 4:
  // T = dv * Psi^H (K Psi)   (norb x norb, k = ngrid)
  kpsi_scratch<C> scratch(ngrid, norb);
  matrix<C>& kpsi = scratch.get();
  h.apply_kinetic(psi.view(), kpsi.view());
  blas::gemm<C>(blas::transpose::conj_trans, blas::transpose::none,
                C(static_cast<R>(dv)), psi.view(), kpsi.view(), C(0),
                t.view(), "lfd/calc_energy/kinetic");
  double ekin = 0.0;
  for (std::size_t j = 0; j < norb; ++j) {
    ekin += occ[j] * static_cast<double>(t(j, j).real());
  }
  return ekin;
}

template <typename R>
double energy_local(const hamiltonian<R>& h,
                    const matrix<std::complex<R>>& psi,
                    std::span<const double> occ, double dv) {
  using C = std::complex<R>;
  const std::size_t ngrid = psi.rows();
  const std::size_t norb = psi.cols();
  // Local potential energy: mesh reduction (not BLASified in DCMESH).
  const std::span<const R> v = h.potential();
  double epot = 0.0;
  for (std::size_t j = 0; j < norb; ++j) {
    if (occ[j] == 0.0) continue;
    const C* col = psi.data() + j * ngrid;
    double e = 0.0;
    for (std::size_t gidx = 0; gidx < ngrid; ++gidx) {
      const double density =
          static_cast<double>(col[gidx].real()) * col[gidx].real() +
          static_cast<double>(col[gidx].imag()) * col[gidx].imag();
      e += static_cast<double>(v[gidx]) * density;
    }
    epot += occ[j] * e * dv;
  }
  return epot;
}

template <typename R>
double energy_nonlocal(const matrix<std::complex<R>>& g, double lambda_nl,
                       std::span<const double> occ) {
  using C = std::complex<R>;
  const std::size_t norb = g.cols();
  // BLAS call 5: M = G^H * W with W = Lambda G (projector-strength row
  // scaling); E_nl = lambda_nl * sum_j f_j Re M_jj.  W's row scaling is a
  // level-1 operation; the contraction is the level-3 call.
  matrix<C> w(norb, norb);
  for (std::size_t j = 0; j < norb; ++j) {
    for (std::size_t i = 0; i < norb; ++i) {
      // Deeper projectors for lower orbitals: lambda_i = 1/(1+i).
      const R scale = static_cast<R>(1.0 / (1.0 + static_cast<double>(i)));
      w(i, j) = scale * g(i, j);
    }
  }
  matrix<C> m(norb, norb);
  blas::gemm<C>(blas::transpose::conj_trans, blas::transpose::none, C(1),
                g.view(), w.view(), C(0), m.view(),
                "lfd/calc_energy/nonlocal");
  double enl = 0.0;
  for (std::size_t j = 0; j < norb; ++j) {
    enl += lambda_nl * occ[j] * static_cast<double>(m(j, j).real());
  }
  return enl;
}

template <typename R>
double energy_band_rotation(const matrix<std::complex<R>>& t,
                            const matrix<std::complex<R>>& g,
                            std::span<const double> occ) {
  using C = std::complex<R>;
  const std::size_t norb = g.cols();
  // BLAS call 6: U = T * G; rotated band energy sum_j f_j Re[(G^H U)_jj]
  // evaluated as an element-wise contraction of G and U.
  matrix<C> u(norb, norb);
  blas::gemm<C>(blas::transpose::none, blas::transpose::none, C(1), t.view(),
                g.view(), C(0), u.view(), "lfd/calc_energy/band_rot");
  double eband_rot = 0.0;
  for (std::size_t j = 0; j < norb; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < norb; ++i) {
      const C gij = g(i, j);
      const C uij = u(i, j);
      acc += static_cast<double>(gij.real()) * uij.real() +
             static_cast<double>(gij.imag()) * uij.imag();
    }
    eband_rot += occ[j] * acc;
  }
  return eband_rot;
}

template <typename R>
energy_report calc_energy(const hamiltonian<R>& h,
                          const matrix<std::complex<R>>& psi,
                          const matrix<std::complex<R>>& g, double lambda_nl,
                          std::span<const double> occ, double dv) {
  trace::span span("lfd/calc_energy", "lfd");
  using C = std::complex<R>;
  const std::size_t norb = psi.cols();

  energy_report report;
  matrix<C> t(norb, norb);
  report.ekin = energy_kinetic<R>(h, psi, occ, dv, t);
  report.epot = energy_local<R>(h, psi, occ, dv);
  report.enl = energy_nonlocal<R>(g, lambda_nl, occ);
  report.eband_rot = energy_band_rotation<R>(t, g, occ);
  return report;
}

template double energy_kinetic<float>(const hamiltonian<float>&,
                                      const matrix<std::complex<float>>&,
                                      std::span<const double>, double,
                                      matrix<std::complex<float>>&);
template double energy_kinetic<double>(const hamiltonian<double>&,
                                       const matrix<std::complex<double>>&,
                                       std::span<const double>, double,
                                       matrix<std::complex<double>>&);
template double energy_local<float>(const hamiltonian<float>&,
                                    const matrix<std::complex<float>>&,
                                    std::span<const double>, double);
template double energy_local<double>(const hamiltonian<double>&,
                                     const matrix<std::complex<double>>&,
                                     std::span<const double>, double);
template double energy_nonlocal<float>(const matrix<std::complex<float>>&,
                                       double, std::span<const double>);
template double energy_nonlocal<double>(const matrix<std::complex<double>>&,
                                        double, std::span<const double>);
template double energy_band_rotation<float>(
    const matrix<std::complex<float>>&, const matrix<std::complex<float>>&,
    std::span<const double>);
template double energy_band_rotation<double>(
    const matrix<std::complex<double>>&, const matrix<std::complex<double>>&,
    std::span<const double>);
template energy_report calc_energy<float>(const hamiltonian<float>&,
                                          const matrix<std::complex<float>>&,
                                          const matrix<std::complex<float>>&,
                                          double, std::span<const double>,
                                          double);
template energy_report calc_energy<double>(
    const hamiltonian<double>&, const matrix<std::complex<double>>&,
    const matrix<std::complex<double>>&, double, std::span<const double>,
    double);

}  // namespace dcmesh::lfd
