#include "dcmesh/lfd/nlp_prop.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/level1.hpp"
#include "dcmesh/trace/tracer.hpp"
#include "column_sum.hpp"

namespace dcmesh::lfd {

template <typename R>
void nlp_overlap(const matrix<std::complex<R>>& psi0,
                 const matrix<std::complex<R>>& psi, double dv,
                 matrix<std::complex<R>>& g) {
  using C = std::complex<R>;
  // BLAS call 1: G = dv * Psi0^H * Psi(t)   (norb x norb, k = ngrid)
  blas::gemm<C>(blas::transpose::conj_trans, blas::transpose::none,
                C(static_cast<R>(dv)), psi0.view(), psi.view(), C(0),
                g.view(), "lfd/nlp_prop/overlap");
}

template <typename R>
void nlp_project(const matrix<std::complex<R>>& psi0,
                 const matrix<std::complex<R>>& g, std::complex<double> c,
                 matrix<std::complex<R>>& psi) {
  using C = std::complex<R>;
  // BLAS call 2: Psi += c * Psi0 * G        (ngrid x norb, k = norb)
  const C cc(static_cast<R>(c.real()), static_cast<R>(c.imag()));
  blas::gemm<C>(blas::transpose::none, blas::transpose::none, cc,
                psi0.view(), g.view(), C(1), psi.view(),
                "lfd/nlp_prop/project");
}

template <typename R>
void nlp_subspace(const matrix<std::complex<R>>& g,
                  matrix<std::complex<R>>& o, std::span<double> weight) {
  using C = std::complex<R>;
  // BLAS call 3: O = G^H * G                (norb x norb, k = norb)
  blas::gemm<C>(blas::transpose::conj_trans, blas::transpose::none, C(1),
                g.view(), g.view(), C(0), o.view(),
                "lfd/nlp_prop/subspace");
  for (std::size_t j = 0; j < g.cols(); ++j) {
    weight[j] = static_cast<double>(o(j, j).real());
  }
}

template <typename R>
double nlp_renormalize(matrix<std::complex<R>>& psi, double dv,
                       std::span<double> drift) {
  using C = std::complex<R>;
  const std::size_t ngrid = psi.rows();
  const std::size_t norb = psi.cols();
  // Renormalize columns via level-1 BLAS (nrm2 accumulates in double, so
  // the norm itself is mode- and precision-robust).  Each column's norm
  // and scaling run as one kernel-team task on a large enough mesh
  // (for_each_column) and write only that column and its drift entry;
  // the worst drift is then taken in column order, so a NaN drift is
  // skipped as in the serial loop.
  const double sqrt_dv = std::sqrt(dv);
  detail::for_each_column(norb, ngrid, [&](std::size_t j) {
    C* col = psi.data() + j * ngrid;
    const double norm =
        blas::nrm2<C>(static_cast<blas::blas_int>(ngrid), col, 1) * sqrt_dv;
    drift[j] = std::abs(norm - 1.0);
    if (norm > 0.0) {
      blas::scal_real<R>(static_cast<blas::blas_int>(ngrid),
                         static_cast<R>(1.0 / norm), col, 1);
    }
  });
  double worst = 0.0;
  for (std::size_t j = 0; j < norb; ++j) worst = std::max(worst, drift[j]);
  return worst;
}

template <typename R>
nlp_result<R> nlp_prop(const matrix<std::complex<R>>& psi0,
                       matrix<std::complex<R>>& psi, std::complex<double> c,
                       double dv) {
  trace::span span("lfd/nlp_prop", "lfd");
  using C = std::complex<R>;
  const std::size_t norb = psi.cols();

  nlp_result<R> result{matrix<C>(norb, norb), std::vector<double>(norb)};
  matrix<C> o(norb, norb);
  std::vector<double> drift(norb);
  nlp_overlap<R>(psi0, psi, dv, result.g);
  nlp_project<R>(psi0, result.g, c, psi);
  nlp_subspace<R>(result.g, o, result.subspace_weight);
  result.norm_drift = nlp_renormalize<R>(psi, dv, drift);
  return result;
}

template void nlp_overlap<float>(const matrix<std::complex<float>>&,
                                 const matrix<std::complex<float>>&, double,
                                 matrix<std::complex<float>>&);
template void nlp_overlap<double>(const matrix<std::complex<double>>&,
                                  const matrix<std::complex<double>>&, double,
                                  matrix<std::complex<double>>&);
template void nlp_project<float>(const matrix<std::complex<float>>&,
                                 const matrix<std::complex<float>>&,
                                 std::complex<double>,
                                 matrix<std::complex<float>>&);
template void nlp_project<double>(const matrix<std::complex<double>>&,
                                  const matrix<std::complex<double>>&,
                                  std::complex<double>,
                                  matrix<std::complex<double>>&);
template void nlp_subspace<float>(const matrix<std::complex<float>>&,
                                  matrix<std::complex<float>>&,
                                  std::span<double>);
template void nlp_subspace<double>(const matrix<std::complex<double>>&,
                                   matrix<std::complex<double>>&,
                                   std::span<double>);
template double nlp_renormalize<float>(matrix<std::complex<float>>&, double,
                                       std::span<double>);
template double nlp_renormalize<double>(matrix<std::complex<double>>&,
                                        double, std::span<double>);
template nlp_result<float> nlp_prop<float>(
    const matrix<std::complex<float>>&, matrix<std::complex<float>>&,
    std::complex<double>, double);
template nlp_result<double> nlp_prop<double>(
    const matrix<std::complex<double>>&, matrix<std::complex<double>>&,
    std::complex<double>, double);

}  // namespace dcmesh::lfd
