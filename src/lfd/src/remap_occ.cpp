#include "dcmesh/lfd/remap_occ.hpp"

#include <stdexcept>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/trace/tracer.hpp"

namespace dcmesh::lfd {

template <typename R>
void remap_overlap(const matrix<std::complex<R>>& psi0,
                   const matrix<std::complex<R>>& psi, std::size_t nocc,
                   double dv, matrix<std::complex<R>>& s) {
  using C = std::complex<R>;
  const std::size_t ngrid = psi.rows();
  const std::size_t norb = psi.cols();
  if (nocc == 0 || nocc >= norb) {
    throw std::invalid_argument("remap_occ: need 0 < nocc < norb");
  }
  const std::size_t nunocc = norb - nocc;

  // Column-range views: occupied propagated orbitals, unoccupied reference.
  const const_matrix_view<C> psi_occ{psi.data(), ngrid, nocc, ngrid};
  const const_matrix_view<C> psi0_unocc{psi0.data() + nocc * ngrid, ngrid,
                                        nunocc, ngrid};

  // BLAS call 7 (Table VII's GEMM): S = dv * Psi_occ^H(t) * Psi0_unocc
  // (m = nocc, n = norb - nocc, k = ngrid).
  blas::gemm<C>(blas::transpose::conj_trans, blas::transpose::none,
                C(static_cast<R>(dv)), psi_occ, psi0_unocc, C(0), s.view(),
                "lfd/remap_occ/overlap");
}

template <typename R>
double remap_moment1(const matrix<std::complex<R>>& s,
                     std::span<const double> occ,
                     matrix<std::complex<R>>& o) {
  using C = std::complex<R>;
  const std::size_t nocc = s.rows();
  // BLAS call 8: O = S * S^H (nocc x nocc, k = norb - nocc);
  // nexc = sum_i f_i O_ii.
  blas::gemm<C>(blas::transpose::none, blas::transpose::conj_trans, C(1),
                s.view(), s.view(), C(0), o.view(),
                "lfd/remap_occ/moment1");
  double nexc = 0.0;
  for (std::size_t i = 0; i < nocc; ++i) {
    nexc += occ[i] * static_cast<double>(o(i, i).real());
  }
  return nexc;
}

template <typename R>
double remap_moment2(const matrix<std::complex<R>>& s,
                     const matrix<std::complex<R>>& o,
                     std::span<const double> occ,
                     matrix<std::complex<R>>& rmat) {
  using C = std::complex<R>;
  const std::size_t nocc = s.rows();
  const std::size_t nunocc = s.cols();
  // BLAS call 9: Rmat = S^H * O (nunocc x nocc, k = nocc); the
  // second-order moment sum_i f_i (O^2)_ii = sum_{u,i} f_i Re[S_iu Rmat_ui].
  blas::gemm<C>(blas::transpose::conj_trans, blas::transpose::none, C(1),
                s.view(), o.view(), C(0), rmat.view(),
                "lfd/remap_occ/moment2");
  double second = 0.0;
  for (std::size_t i = 0; i < nocc; ++i) {
    double acc = 0.0;
    for (std::size_t u = 0; u < nunocc; ++u) {
      const C siu = s(i, u);
      const C rui = rmat(u, i);
      // Re[S_iu * R_ui] with R = S^H O: recovers (O^2)_ii when summed.
      acc += static_cast<double>(siu.real()) * rui.real() -
             static_cast<double>(siu.imag()) * rui.imag();
    }
    second += occ[i] * acc;
  }
  return second;
}

template <typename R>
void remap_population(const matrix<std::complex<R>>& s,
                      std::span<const double> occ,
                      std::span<double> population) {
  using C = std::complex<R>;
  const std::size_t nocc = s.rows();
  const std::size_t nunocc = s.cols();
  // Per-unoccupied-orbital population (level-1 work on S).
  for (std::size_t u = 0; u < nunocc; ++u) {
    double pop = 0.0;
    for (std::size_t i = 0; i < nocc; ++i) {
      const C siu = s(i, u);
      pop += occ[i] * (static_cast<double>(siu.real()) * siu.real() +
                       static_cast<double>(siu.imag()) * siu.imag());
    }
    population[u] = pop;
  }
}

template <typename R>
remap_report remap_occ(const matrix<std::complex<R>>& psi0,
                       const matrix<std::complex<R>>& psi,
                       std::span<const double> occ, std::size_t nocc,
                       double dv) {
  trace::span span("lfd/remap_occ", "lfd");
  using C = std::complex<R>;
  const std::size_t norb = psi.cols();
  if (nocc == 0 || nocc >= norb) {
    throw std::invalid_argument("remap_occ: need 0 < nocc < norb");
  }
  const std::size_t nunocc = norb - nocc;

  matrix<C> s(nocc, nunocc), o(nocc, nocc), rmat(nunocc, nocc);
  remap_report report;
  report.unocc_population.resize(nunocc);
  remap_overlap<R>(psi0, psi, nocc, dv, s);
  report.nexc = remap_moment1<R>(s, occ, o);
  report.nexc_second_order = remap_moment2<R>(s, o, occ, rmat);
  remap_population<R>(s, occ, report.unocc_population);
  return report;
}

template void remap_overlap<float>(const matrix<std::complex<float>>&,
                                   const matrix<std::complex<float>>&,
                                   std::size_t, double,
                                   matrix<std::complex<float>>&);
template void remap_overlap<double>(const matrix<std::complex<double>>&,
                                    const matrix<std::complex<double>>&,
                                    std::size_t, double,
                                    matrix<std::complex<double>>&);
template double remap_moment1<float>(const matrix<std::complex<float>>&,
                                     std::span<const double>,
                                     matrix<std::complex<float>>&);
template double remap_moment1<double>(const matrix<std::complex<double>>&,
                                      std::span<const double>,
                                      matrix<std::complex<double>>&);
template double remap_moment2<float>(const matrix<std::complex<float>>&,
                                     const matrix<std::complex<float>>&,
                                     std::span<const double>,
                                     matrix<std::complex<float>>&);
template double remap_moment2<double>(const matrix<std::complex<double>>&,
                                      const matrix<std::complex<double>>&,
                                      std::span<const double>,
                                      matrix<std::complex<double>>&);
template void remap_population<float>(const matrix<std::complex<float>>&,
                                      std::span<const double>,
                                      std::span<double>);
template void remap_population<double>(const matrix<std::complex<double>>&,
                                       std::span<const double>,
                                       std::span<double>);
template remap_report remap_occ<float>(const matrix<std::complex<float>>&,
                                       const matrix<std::complex<float>>&,
                                       std::span<const double>, std::size_t,
                                       double);
template remap_report remap_occ<double>(const matrix<std::complex<double>>&,
                                        const matrix<std::complex<double>>&,
                                        std::span<const double>, std::size_t,
                                        double);

}  // namespace dcmesh::lfd
