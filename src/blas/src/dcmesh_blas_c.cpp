// dcmesh_blas_c.cpp — implementation of the installed public C API
// (include/dcmesh/dcmesh_blas.h).
//
// This translation unit is the ONLY place the C ABI meets the C++ engine:
// every entry validates its arguments, translates them into a
// gemm_call<T> descriptor (or a gemm_batch_strided call), and catches
// every exception at the boundary — C callers see a dcmesh_status and a
// thread-local error string, never a throw.  The LD_PRELOAD
// interposition shim (src/intercept) is a thin forwarder into these
// functions, so the row-major/column-major identity and the type dispatch
// live here once.
//
// dcmesh_install_autotuner() is the one declaration NOT defined here: it
// must pull in src/tune, which depends on blas, so its definition lives
// in src/tune/src/capi_tune.cpp (linking dcmesh::tune provides it).

#include "dcmesh/dcmesh_blas.h"

#include <complex>
#include <cstring>
#include <exception>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/compute_mode.hpp"
#include "dcmesh/blas/gemm_batch.hpp"
#include "dcmesh/blas/gemm_call.hpp"
#include "dcmesh/blas/precision_policy.hpp"
#include "dcmesh/blas/verbose.hpp"
#include "dcmesh/trace/metrics.hpp"

namespace {

using namespace dcmesh;
using blas::blas_int;
using blas::compute_mode;
using blas::transpose;

thread_local std::string t_last_error;

int fail(dcmesh_status status, std::string message) {
  t_last_error = std::move(message);
  return static_cast<int>(status);
}

bool valid_type(char type) {
  return type == 's' || type == 'd' || type == 'c' || type == 'z';
}

std::optional<transpose> parse_trans(char t) {
  switch (t) {
    case 'N': case 'n': return transpose::none;
    case 'T': case 't': return transpose::trans;
    case 'C': case 'c': return transpose::conj_trans;
  }
  return std::nullopt;
}

bool valid_layout(dcmesh_layout layout) {
  return layout == DCMESH_LAYOUT_ROW_MAJOR ||
         layout == DCMESH_LAYOUT_COL_MAJOR;
}

std::size_t elem_bytes(char type) {
  switch (type) {
    case 's': return sizeof(float);
    case 'd': return sizeof(double);
    case 'c': return sizeof(std::complex<float>);
    case 'z': return sizeof(std::complex<double>);
  }
  return 0;
}

/// A mode argument: null or empty = no override; unknown = BAD_MODE.
int parse_mode_arg(const char* mode, std::optional<compute_mode>& out) {
  out.reset();
  if (mode == nullptr || *mode == '\0') return DCMESH_OK;
  out = blas::parse_compute_mode(mode);
  if (out) return DCMESH_OK;
  return fail(DCMESH_ERR_BAD_MODE,
              std::string("unknown compute mode \"") + mode + "\"");
}

/// `run.template operator()<T>()` for the element type letter `type`.
template <typename Run>
int with_type(char type, Run&& run) {
  switch (type) {
    case 's': return run.template operator()<float>();
    case 'd': return run.template operator()<double>();
    case 'c': return run.template operator()<std::complex<float>>();
    default: return run.template operator()<std::complex<double>>();
  }
}

/// The shared engine entry: fill one gemm_call<T> (applying the row-major
/// swap identity C_row = A B  <=>  C_col^T = op(B)^T op(A)^T) and run it.
template <typename T>
int run_one(dcmesh_layout layout, transpose ta, transpose tb, int64_t m,
            int64_t n, int64_t k, const void* alpha, const void* a,
            int64_t lda, const void* b, int64_t ldb, const void* beta,
            void* c, int64_t ldc, std::string_view site,
            std::optional<compute_mode> mode) {
  blas::gemm_call<T> call;
  call.alpha = *static_cast<const T*>(alpha);
  call.beta = *static_cast<const T*>(beta);
  if (layout == DCMESH_LAYOUT_COL_MAJOR) {
    call.transa = ta;
    call.transb = tb;
    call.m = static_cast<blas_int>(m);
    call.n = static_cast<blas_int>(n);
    call.k = static_cast<blas_int>(k);
    call.a = static_cast<const T*>(a);
    call.lda = static_cast<blas_int>(lda);
    call.b = static_cast<const T*>(b);
    call.ldb = static_cast<blas_int>(ldb);
  } else {
    call.transa = tb;
    call.transb = ta;
    call.m = static_cast<blas_int>(n);
    call.n = static_cast<blas_int>(m);
    call.k = static_cast<blas_int>(k);
    call.a = static_cast<const T*>(b);
    call.lda = static_cast<blas_int>(ldb);
    call.b = static_cast<const T*>(a);
    call.ldb = static_cast<blas_int>(lda);
  }
  call.c = static_cast<T*>(c);
  call.ldc = static_cast<blas_int>(ldc);
  call.call_site = site;
  call.mode = mode;
  try {
    blas::run(call);
  } catch (const std::invalid_argument& error) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, error.what());
  } catch (const std::exception& error) {
    return fail(DCMESH_ERR_INTERNAL, error.what());
  }
  return DCMESH_OK;
}

template <typename T>
int run_batch(dcmesh_layout layout, transpose ta, transpose tb, int64_t m,
              int64_t n, int64_t k, const void* alpha, const void* a,
              int64_t lda, int64_t stride_a, const void* b, int64_t ldb,
              int64_t stride_b, const void* beta, void* c, int64_t ldc,
              int64_t stride_c, int64_t batch, std::string_view site,
              std::optional<compute_mode> mode) {
  // The batched C++ API has no per-call mode field; a requested override
  // rides on the thread-local scope, which still outranks every policy
  // layer for the duration of the batch.
  std::optional<blas::scoped_compute_mode> scope;
  if (mode) scope.emplace(*mode);
  const auto call = [&](transpose xa, transpose xb, int64_t xm, int64_t xn,
                        const void* xa_ptr, int64_t xlda, int64_t xsa,
                        const void* xb_ptr, int64_t xldb, int64_t xsb) {
    blas::gemm_batch_strided<T>(
        xa, xb, static_cast<blas_int>(xm), static_cast<blas_int>(xn),
        static_cast<blas_int>(k), *static_cast<const T*>(alpha),
        static_cast<const T*>(xa_ptr), static_cast<blas_int>(xlda),
        static_cast<blas_int>(xsa), static_cast<const T*>(xb_ptr),
        static_cast<blas_int>(xldb), static_cast<blas_int>(xsb),
        *static_cast<const T*>(beta), static_cast<T*>(c),
        static_cast<blas_int>(ldc), static_cast<blas_int>(stride_c),
        static_cast<blas_int>(batch), site);
  };
  try {
    if (layout == DCMESH_LAYOUT_COL_MAJOR) {
      call(ta, tb, m, n, a, lda, stride_a, b, ldb, stride_b);
    } else {
      call(tb, ta, n, m, b, ldb, stride_b, a, lda, stride_a);
    }
  } catch (const std::invalid_argument& error) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, error.what());
  } catch (const std::exception& error) {
    return fail(DCMESH_ERR_INTERNAL, error.what());
  }
  return DCMESH_OK;
}

/// Arguments of dcmesh_gemm / dcmesh_gemm_batch_strided after validation.
struct gemm_args {
  transpose ta = transpose::none;
  transpose tb = transpose::none;
  std::optional<compute_mode> mode;
  std::string_view site;
};

int check_gemm_args(char type, dcmesh_layout layout, char transa,
                    char transb, const void* alpha, const void* beta,
                    const char* site, const char* mode, gemm_args& out) {
  if (!valid_type(type)) {
    return fail(DCMESH_ERR_BAD_TYPE,
                std::string("unknown element type '") + type + "'");
  }
  if (!valid_layout(layout)) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "bad layout enum");
  }
  const auto ta = parse_trans(transa);
  const auto tb = parse_trans(transb);
  if (!ta || !tb) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "bad transpose char");
  }
  if (alpha == nullptr || beta == nullptr) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "alpha/beta must not be null");
  }
  out.ta = *ta;
  out.tb = *tb;
  out.site = site == nullptr ? "" : site;
  return parse_mode_arg(mode, out.mode);
}

/// Copy-out contract shared by the introspection calls: NUL-terminate
/// whatever fits, return the full untruncated length.
int copy_out(std::string_view s, char* buf, size_t cap) {
  if (buf == nullptr || cap == 0) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "output buffer is null/empty");
  }
  const size_t n = s.size() < cap - 1 ? s.size() : cap - 1;
  std::memcpy(buf, s.data(), n);
  buf[n] = '\0';
  return static_cast<int>(s.size());
}

}  // namespace

extern "C" {

int dcmesh_api_version(void) { return DCMESH_API_VERSION; }

const char* dcmesh_api_version_string(void) {
  return "1.0";
}

const char* dcmesh_last_error(void) { return t_last_error.c_str(); }

int dcmesh_gemm(char type, dcmesh_layout layout, char transa, char transb,
                int64_t m, int64_t n, int64_t k, const void* alpha,
                const void* a, int64_t lda, const void* b, int64_t ldb,
                const void* beta, void* c, int64_t ldc, const char* site,
                const char* mode) {
  gemm_args args;
  if (const int status = check_gemm_args(type, layout, transa, transb, alpha,
                                         beta, site, mode, args);
      status != DCMESH_OK) {
    return status;
  }
  return with_type(type, [&]<typename T>() {
    return run_one<T>(layout, args.ta, args.tb, m, n, k, alpha, a, lda, b,
                      ldb, beta, c, ldc, args.site, args.mode);
  });
}

int dcmesh_gemm_batch_strided(char type, dcmesh_layout layout, char transa,
                              char transb, int64_t m, int64_t n, int64_t k,
                              const void* alpha, const void* a, int64_t lda,
                              int64_t stride_a, const void* b, int64_t ldb,
                              int64_t stride_b, const void* beta, void* c,
                              int64_t ldc, int64_t stride_c, int64_t batch,
                              const char* site, const char* mode) {
  gemm_args args;
  if (const int status = check_gemm_args(type, layout, transa, transb, alpha,
                                         beta, site, mode, args);
      status != DCMESH_OK) {
    return status;
  }
  return with_type(type, [&]<typename T>() {
    return run_batch<T>(layout, args.ta, args.tb, m, n, k, alpha, a, lda,
                        stride_a, b, ldb, stride_b, beta, c, ldc, stride_c,
                        batch, args.site, args.mode);
  });
}

// ----------------------------------------------------------- descriptor

struct dcmesh_gemm_desc {
  char type = 's';
  dcmesh_layout layout = DCMESH_LAYOUT_COL_MAJOR;
  char transa = 'N';
  char transb = 'N';
  int64_t m = 0, n = 0, k = 0;
  // Scalar storage sized for the largest element type; initialised to the
  // type's one/zero at create time.
  alignas(16) unsigned char alpha[16] = {};
  alignas(16) unsigned char beta[16] = {};
  const void* a = nullptr;
  int64_t lda = 0;
  const void* b = nullptr;
  int64_t ldb = 0;
  void* c = nullptr;
  int64_t ldc = 0;
  bool have_shape = false;
  bool have_operands = false;
  std::string site;
  std::optional<compute_mode> mode;
};

dcmesh_gemm_desc* dcmesh_gemm_desc_create(char type) {
  if (!valid_type(type)) {
    fail(DCMESH_ERR_BAD_TYPE,
         std::string("unknown element type '") + type + "'");
    return nullptr;
  }
  auto* desc = new (std::nothrow) dcmesh_gemm_desc;
  if (desc == nullptr) {
    fail(DCMESH_ERR_INTERNAL, "descriptor allocation failed");
    return nullptr;
  }
  desc->type = type;
  switch (type) {
    case 's': *reinterpret_cast<float*>(desc->alpha) = 1.0f; break;
    case 'd': *reinterpret_cast<double*>(desc->alpha) = 1.0; break;
    case 'c':
      *reinterpret_cast<std::complex<float>*>(desc->alpha) = {1.0f, 0.0f};
      break;
    default:
      *reinterpret_cast<std::complex<double>*>(desc->alpha) = {1.0, 0.0};
      break;
  }
  return desc;
}

void dcmesh_gemm_desc_destroy(dcmesh_gemm_desc* desc) { delete desc; }

int dcmesh_gemm_desc_set_layout(dcmesh_gemm_desc* desc,
                                dcmesh_layout layout) {
  if (desc == nullptr) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "null descriptor");
  }
  if (!valid_layout(layout)) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "bad layout enum");
  }
  desc->layout = layout;
  return DCMESH_OK;
}

int dcmesh_gemm_desc_set_transpose(dcmesh_gemm_desc* desc, char transa,
                                   char transb) {
  if (desc == nullptr) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "null descriptor");
  }
  if (!parse_trans(transa) || !parse_trans(transb)) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "bad transpose char");
  }
  desc->transa = transa;
  desc->transb = transb;
  return DCMESH_OK;
}

int dcmesh_gemm_desc_set_shape(dcmesh_gemm_desc* desc, int64_t m, int64_t n,
                               int64_t k) {
  if (desc == nullptr) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "null descriptor");
  }
  if (m < 0 || n < 0 || k < 0) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "negative dimension");
  }
  desc->m = m;
  desc->n = n;
  desc->k = k;
  desc->have_shape = true;
  return DCMESH_OK;
}

int dcmesh_gemm_desc_set_scalars(dcmesh_gemm_desc* desc, const void* alpha,
                                 const void* beta) {
  if (desc == nullptr) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "null descriptor");
  }
  if (alpha == nullptr || beta == nullptr) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "alpha/beta must not be null");
  }
  std::memcpy(desc->alpha, alpha, elem_bytes(desc->type));
  std::memcpy(desc->beta, beta, elem_bytes(desc->type));
  return DCMESH_OK;
}

int dcmesh_gemm_desc_set_operands(dcmesh_gemm_desc* desc, const void* a,
                                  int64_t lda, const void* b, int64_t ldb,
                                  void* c, int64_t ldc) {
  if (desc == nullptr) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "null descriptor");
  }
  if (a == nullptr || b == nullptr || c == nullptr) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "operand must not be null");
  }
  desc->a = a;
  desc->lda = lda;
  desc->b = b;
  desc->ldb = ldb;
  desc->c = c;
  desc->ldc = ldc;
  desc->have_operands = true;
  return DCMESH_OK;
}

int dcmesh_gemm_desc_set_site(dcmesh_gemm_desc* desc, const char* site) {
  if (desc == nullptr) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "null descriptor");
  }
  desc->site = site == nullptr ? "" : site;
  return DCMESH_OK;
}

int dcmesh_gemm_desc_set_mode(dcmesh_gemm_desc* desc, const char* mode) {
  if (desc == nullptr) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "null descriptor");
  }
  std::optional<compute_mode> parsed;
  const int status = parse_mode_arg(mode, parsed);
  if (status == DCMESH_OK) desc->mode = parsed;
  return status;
}

int dcmesh_gemm_execute(const dcmesh_gemm_desc* desc) {
  if (desc == nullptr) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "null descriptor");
  }
  if (!desc->have_shape || !desc->have_operands) {
    return fail(DCMESH_ERR_INCOMPLETE,
                "descriptor executed before set_shape/set_operands");
  }
  const auto ta = *parse_trans(desc->transa);
  const auto tb = *parse_trans(desc->transb);
  return with_type(desc->type, [&]<typename T>() {
    return run_one<T>(desc->layout, ta, tb, desc->m, desc->n, desc->k,
                      desc->alpha, desc->a, desc->lda, desc->b, desc->ldb,
                      desc->beta, desc->c, desc->ldc, desc->site, desc->mode);
  });
}

// ------------------------------------------------- process-wide control

int dcmesh_set_policy(const char* policy_text) {
  if (policy_text == nullptr || *policy_text == '\0') {
    blas::clear_policy();
    return DCMESH_OK;
  }
  try {
    blas::set_policy(blas::parse_policy(policy_text));
  } catch (const std::invalid_argument& error) {
    return fail(DCMESH_ERR_BAD_POLICY, error.what());
  }
  return DCMESH_OK;
}

int dcmesh_set_compute_mode(const char* mode) {
  std::optional<compute_mode> parsed;
  const int status = parse_mode_arg(mode, parsed);
  if (status != DCMESH_OK) return status;
  if (parsed) {
    blas::set_compute_mode(*parsed);
  } else {
    blas::clear_compute_mode();
  }
  return DCMESH_OK;
}

int dcmesh_set_num_threads(int threads) {
  if (threads < 0) {
    return fail(DCMESH_ERR_INVALID_ARGUMENT, "negative thread count");
  }
  blas::set_num_threads(threads);
  return DCMESH_OK;
}

// ----------------------------------------------------------- introspection

uint64_t dcmesh_call_count(void) { return blas::call_count(); }

int dcmesh_last_call_site(char* buf, size_t cap) {
  const auto last = blas::last_call();
  if (!last) return fail(DCMESH_ERR_INVALID_ARGUMENT, "no call recorded yet");
  return copy_out(last->call_site, buf, cap);
}

int dcmesh_last_call_mode(char* buf, size_t cap) {
  const auto last = blas::last_call();
  if (!last) return fail(DCMESH_ERR_INVALID_ARGUMENT, "no call recorded yet");
  return copy_out(blas::info(last->mode).env_token, buf, cap);
}

int dcmesh_metrics_report(char* buf, size_t cap) {
  return copy_out(trace::gemm_metrics_report(), buf, cap);
}

}  // extern "C"
