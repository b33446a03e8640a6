// gemm_dispatch.cpp — the single choke point behind every GEMM descriptor.
//
// run(gemm_call<T>) is plan_call() then run_planned().  plan_call resolves
// the compute mode (policy rule, auto_tune_hook for AUTO rules, resilience
// promotion overlay) and the ABFT mode; run_planned is one
// verify-and-escalate pipeline with fixed stages:
//
//   1. validate  the argument contract, once, before anything is copied
//   2. arm       the accuracy guard, ABFT and the health sentinel; query
//                the fault plan once; snapshot C when an armed check may
//                re-run on the caller's C and beta != 0
//   3. run       at the requested mode; an input-space fault corrupts the
//                materialized op(A)/op(B) the kernel consumes (suppressed
//                under the guard, whose reference reads the caller's
//                operands).  ABFT runs on Huang–Abraham checksum-bordered
//                copies (op(A) gains e·A, op(B) gains B·e) through the
//                unchanged kernel, bit-identical in the interior, and
//                leaves the caller's C pristine until stage 7
//   4. guard     sampled residual against a standard reference
//   5. fault     an output-space fault lands on the settled result
//   6. verify    ABFT checksums under a per-mode τ, then the finite scan
//   7. record    copy the bordered interior back; the caller hands the
//                returned record to record_call, the one sink path
//
// Each check returns clean, located(i,j,δ) or dirty, and one routine,
// escalate(), handles a failed check by its tier's row:
//
//   tier          in-place fix     same-mode re-run  climbs  verdicts
//   guard         -                -                 yes     passed/promoted
//   ABFT detect   -                -                 no      detected
//   ABFT correct  snap, re-verify  first, rebuilt    then    corrected/
//                                                            recovered/failed
//   health        -                once, at the top  first   recovered/
//                                                            detected
//
// A re-run starts from pristine inputs and is injection-free (the fault
// plan's occurrence counter already advanced).  One timed block runs from
// the C snapshot to the copy-back, so record.seconds includes every check
// and re-run of every tier.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "dcmesh/blas/gemm_call.hpp"
#include "dcmesh/blas/precision_policy.hpp"
#include "dcmesh/blas/verbose.hpp"
#include "dcmesh/common/rng.hpp"
#include "dcmesh/resil/abft.hpp"
#include "dcmesh/resil/fault_plan.hpp"
#include "dcmesh/resil/health.hpp"
#include "dcmesh/resil/promotion.hpp"
#include "dcmesh/trace/metrics.hpp"
#include "dispatch_internal.hpp"
#include "gemm_kernel.hpp"
#include "gemm_modes.hpp"
#include "split.hpp"

namespace dcmesh::blas {
namespace detail {
namespace {

/// The mode recorded (and executed) for element type T.  Mirrors the
/// pre-descriptor entry points: float/complex<float> records the resolved
/// mode as-is (even when it is a no-op, like COMPLEX_3M on sgemm), real
/// double is always standard, complex double keeps only COMPLEX_3M.
template <typename T>
constexpr compute_mode effective_mode(compute_mode mode) noexcept {
  if constexpr (std::is_same_v<T, double>) {
    (void)mode;
    return compute_mode::standard;
  } else if constexpr (std::is_same_v<T, std::complex<double>>) {
    return mode == compute_mode::complex_3m ? compute_mode::complex_3m
                                            : compute_mode::standard;
  } else {
    return mode;
  }
}

/// True when `mode` changes T's arithmetic vs standard — i.e. when a
/// guard check is meaningful.  COMPLEX_3M is a no-op on real types.
template <typename T>
constexpr bool mode_alters_arithmetic(compute_mode mode) noexcept {
  const compute_mode effective = effective_mode<T>(mode);
  return gemm_traits<T>::is_complex ? effective != compute_mode::standard
                                    : is_split_mode(effective);
}

/// The tag a call is known by: its call site, else its routine name.
template <typename T>
std::string_view site_of(const gemm_call<T>& call) noexcept {
  return call.call_site.empty() ? std::string_view(gemm_traits<T>::routine)
                                : call.call_site;
}

/// Rows of C the guard samples: up to kGuardSampleRows evenly strided
/// rows (deterministic — guarded runs must stay reproducible).
inline constexpr blas_int kGuardSampleRows = 8;

/// Relative Frobenius residual of the low-precision result against a
/// standard-arithmetic reference computed for the sampled rows only, in
/// T's own precision (the "FP32 reference" for the float paths).
/// `c_orig` holds the pre-call C, packed m x n column-major (unread, and
/// empty, when beta == 0).
template <typename T>
double sampled_residual(const gemm_call<T>& call,
                        const std::vector<T>& c_orig) {
  const blas_int stride = std::max<blas_int>(1, call.m / kGuardSampleRows);
  double num = 0.0, den = 0.0;
  for (blas_int i = 0; i < std::min(call.m, stride * kGuardSampleRows);
       i += stride) {
    for (blas_int j = 0; j < call.n; ++j) {
      T acc = T(0);
      for (blas_int p = 0; p < call.k; ++p) {
        acc += op_element(call.a, call.lda, call.transa, i, p) *
               op_element(call.b, call.ldb, call.transb, p, j);
      }
      T ref = call.alpha * acc;
      if (call.beta != T(0)) {
        ref += call.beta * c_orig[static_cast<std::size_t>(i + j * call.m)];
      }
      const T got = call.c[i + j * call.ldc];
      const double diff = std::abs(got - ref);
      num += diff * diff;
      const double mag = std::abs(ref);
      den += mag * mag;
    }
  }
  if (num == 0.0) return 0.0;
  constexpr double kTinyDen = 1e-300;
  return std::sqrt(num) / std::sqrt(std::max(den, kTinyDen));
}

/// A column-major rows x cols window onto a matrix: the caller's C, the
/// interior of a checksum-bordered copy, or a materialized operand.
template <typename T>
struct mat_view {
  T* data;
  blas_int ld, rows, cols;
  T& operator()(blas_int i, blas_int j) const { return data[i + j * ld]; }
};

template <typename T>
void copy_view(const mat_view<T>& from, const mat_view<T>& to) {
  for (blas_int j = 0; j < from.cols; ++j) {
    std::copy_n(&from(0, j), from.rows, &to(0, j));
  }
}

/// A GEMM operand as the kernel reads it: op(X) through X's ld.
template <typename T>
struct operand {
  const T* data;
  blas_int ld;
  transpose op;
};

/// Checksum borders of a materialized operand (bit flags).
enum border : unsigned { kNoBorder = 0, kSumRow = 1, kSumCol = 2 };

/// Materialize op(X) (rows x cols) into `out` dense column-major, bordered
/// by a row of column sums (kSumRow: op(A)'s e·A) and/or a column of row
/// sums (kSumCol: op(B)'s B·e; with both, C's seed with the grand total in
/// the corner).  Sums run in double and round once to T; the interior
/// holds the exact operand values, so a kernel run on the copy is
/// bit-identical to one on X.  Returns the interior's amax when bordered
/// (the ABFT τ scale), else 0.
template <typename T>
double materialize(const operand<T>& x, blas_int rows, blas_int cols,
                   unsigned edges, std::vector<T>& out) {
  const blas_int ld = rows + ((edges & kSumRow) ? 1 : 0);
  out.resize(static_cast<std::size_t>(ld) *
             static_cast<std::size_t>(cols + ((edges & kSumCol) ? 1 : 0)));
  std::vector<double> row_sums((edges & kSumCol) ? rows : 0, 0.0);
  double amax = 0.0, total = 0.0;
  for (blas_int j = 0; j < cols; ++j) {
    T* col = out.data() + static_cast<std::size_t>(j) * ld;
    double col_sum = 0.0;
    for (blas_int i = 0; i < rows; ++i) {
      col[i] = op_element(x.data, x.ld, x.op, i, j);
      if constexpr (!gemm_traits<T>::is_complex) {
        if (edges == kNoBorder) continue;
        const double v = static_cast<double>(col[i]);
        col_sum += v;
        if (edges & kSumCol) row_sums[static_cast<std::size_t>(i)] += v;
        amax = std::max(amax, std::abs(v));
      }
    }
    if (edges & kSumRow) col[rows] = static_cast<T>(col_sum);
    total += col_sum;
  }
  if (edges & kSumCol) {
    T* last = out.data() + static_cast<std::size_t>(cols) * ld;
    for (blas_int i = 0; i < rows; ++i) {
      last[i] = static_cast<T>(row_sums[static_cast<std::size_t>(i)]);
    }
    if (edges & kSumRow) last[rows] = static_cast<T>(total);
  }
  return amax;
}

// ---- resilience: fault application -------------------------------------

template <typename Real>
void flip_bit(Real* slot, unsigned bit) noexcept {
  using bits_t =
      std::conditional_t<sizeof(Real) == 4, std::uint32_t, std::uint64_t>;
  bits_t repr;
  std::memcpy(&repr, slot, sizeof(repr));
  repr ^= bits_t{1} << bit;
  std::memcpy(slot, &repr, sizeof(repr));
}

/// Apply one planned fault to `v` in place, returning the description that
/// goes into the verbose record and the trace ("nan@(3,7)",
/// "bitflip_a@(0,2):b12", "scale*1024").  Output kinds target C, input
/// kinds a materialized op(A)/op(B).  Element/bit choices come from the
/// hit's deterministic draw stream, whose first two draws are pick0/pick1,
/// so a (seed, rule, occurrence) perturbs the same element whichever tier
/// consumed it; element kinds apply `hits` times (fresh draws per hit) and
/// perturb the real part (std::complex guarantees the two-reals layout).
template <typename T>
std::string apply_fault(const resil::fault_hit& hit, const mat_view<T>& v) {
  using real_t = decltype(std::real(T{}));
  const std::size_t total =
      static_cast<std::size_t>(v.rows) * static_cast<std::size_t>(v.cols);
  if (total == 0) return {};
  char buffer[96];
  if (hit.kind == resil::fault_kind::scale) {
    const double factor = hit.param.value_or(1024.0);
    for (blas_int j = 0; j < v.cols; ++j) {
      for (blas_int i = 0; i < v.rows; ++i) {
        v(i, j) *= static_cast<real_t>(factor);
      }
    }
    std::snprintf(buffer, sizeof(buffer), "scale*%g", factor);
    return buffer;
  }
  const std::string kind(resil::name(hit.kind));
  xoshiro256 rng(hit.draw_seed);
  std::string desc;
  const std::int64_t hits = std::max<std::int64_t>(1, hit.hits);
  for (std::int64_t h = 0; h < hits; ++h) {
    const std::uint64_t pick0 = rng();
    const std::uint64_t pick1 = rng();
    const std::size_t idx = pick0 % total;
    const auto rows = static_cast<std::size_t>(v.rows);
    const auto i = static_cast<blas_int>(idx % rows);
    const auto j = static_cast<blas_int>(idx / rows);
    real_t* slot = reinterpret_cast<real_t*>(&v(i, j));
    const int len =
        std::snprintf(buffer, sizeof(buffer), "%s@(%lld,%lld)", kind.c_str(),
                      static_cast<long long>(i), static_cast<long long>(j));
    if (hit.kind == resil::fault_kind::nan_value) {
      *slot = std::numeric_limits<real_t>::quiet_NaN();
    } else if (hit.kind == resil::fault_kind::inf_value) {
      *slot = std::numeric_limits<real_t>::infinity();
    } else {  // bitflip, bitflip_a, bitflip_b
      constexpr unsigned kBits = sizeof(real_t) * 8;
      const unsigned bit = hit.param
                               ? static_cast<unsigned>(*hit.param) % kBits
                               : static_cast<unsigned>(pick1 % kBits);
      flip_bit(slot, bit);
      std::snprintf(buffer + len, sizeof(buffer) - len, ":b%u", bit);
    }
    if (!desc.empty()) desc += '+';
    desc += buffer;
  }
  return desc;
}

// ---- the checks and the escalation ladder ------------------------------

/// What one check found.  `located` names a single element (i, j) that
/// the signed residual `delta` would repair (snap tolerance `tol`);
/// `dirty` is unlocatable damage (i, j name the first bad element when
/// the check knows one).
struct check_result {
  enum { clean, located, dirty } state = clean;
  blas_int i = 0, j = 0;
  double delta = 0.0, tol = 0.0;
  [[nodiscard]] bool ok() const noexcept { return state == clean; }
};

/// Finite scan of C at the given level.  At `sample` the scan strides so
/// that at most kSampleScanElems elements are touched (deterministic —
/// a single flipped element may escape a sampled scan; the step-level
/// invariants are the backstop).  Dirty at the first non-finite element.
template <typename T>
check_result scan_finite(const mat_view<T>& c, resil::health_level level) {
  const std::size_t mn =
      static_cast<std::size_t>(c.rows) * static_cast<std::size_t>(c.cols);
  std::size_t stride = 1;
  if (level == resil::health_level::sample &&
      mn > resil::kSampleScanElems) {
    stride = (mn + resil::kSampleScanElems - 1) / resil::kSampleScanElems;
  }
  const auto rows = static_cast<std::size_t>(c.rows);
  for (std::size_t idx = 0; idx < mn; idx += stride) {
    const auto i = static_cast<blas_int>(idx % rows);
    const auto j = static_cast<blas_int>(idx / rows);
    if (!std::isfinite(std::real(c(i, j))) ||
        !std::isfinite(std::imag(c(i, j)))) {
      return {check_result::dirty, i, j};
    }
  }
  return {};
}

/// Per-mode rounding units for the τ derivation.  u_repr is the
/// *effective* representation unit of the mode's operand encoding (the
/// split modes keep the sum of their components: BF16x2 ~16 bits, BF16x3
/// ~24); u_acc is the kernel's accumulator unit (FP32/FP64).
template <typename T>
resil::abft_error_model abft_model_for(compute_mode mode) noexcept {
  resil::abft_error_model model;
  if constexpr (std::is_same_v<T, double>) {
    (void)mode;
    model.u_repr = 0x1p-53;
    model.u_acc = 0x1p-53;
  } else {
    model.u_acc = 0x1p-24;
    switch (mode) {
      case compute_mode::float_to_bf16: model.u_repr = 0x1p-8; break;
      case compute_mode::float_to_tf32: model.u_repr = 0x1p-11; break;
      case compute_mode::float_to_bf16x2: model.u_repr = 0x1p-16; break;
      default: model.u_repr = 0x1p-24; break;  // standard, BF16x3
    }
  }
  return model;
}

/// How a tier escalates a failed check (one row of the header's table).
struct tier_row {
  bool snap_located;        ///< Repair a located element, then re-verify.
  bool same_mode_first;     ///< First re-run at the failing mode.
  bool climbs;              ///< Re-run up the mantissa ladder.
  bool retry_at_top;        ///< One same-mode re-run once at the top.
  const char* rerun_event;  ///< Health event before each re-run, or null.
};

//                                snap   same   climbs top    event
constexpr tier_row kGuardRow      {false, false, true,  false, nullptr};
constexpr tier_row kAbftDetectRow {false, false, false, false, nullptr};
constexpr tier_row kAbftCorrectRow{true,  true,  true,  false, "abft_escalate"};
constexpr tier_row kHealthRow     {false, false, true,  true,  nullptr};

enum class fix { corrected, recovered, exhausted };

/// One call's execution across attempts: the result lands in the caller's
/// C, or — under ABFT — in the interior of a checksum-bordered copy.
template <typename T>
struct call_pipeline {
  const gemm_call<T>& call;
  const bool bordered;  ///< Run on ABFT checksum-bordered copies.
  const std::string_view site;
  compute_mode mode;
  int attempts = 0;
  std::vector<T> a_aug, b_aug, c_aug, c_orig, op_copy;
  double amax_a = 0.0, amax_b = 0.0, amax_c = 0.0;

  call_pipeline(const gemm_call<T>& c, bool bordered_run,
                std::string_view call_site, compute_mode at)
      : call(c), bordered(bordered_run), site(call_site), mode(at) {}

  [[nodiscard]] mat_view<T> result() {
    if (bordered) return {c_aug.data(), call.m + 1, call.m, call.n};
    return {call.c, call.ldc, call.m, call.n};
  }

  /// Run once at `mode`.  A re-run starts over from pristine inputs: the
  /// bordered copies are rebuilt from the caller's untouched buffers, or
  /// the caller's C is restored from the snapshot.  `inject` (first run
  /// only) corrupts the materialized operand the kernel is about to
  /// consume; returns its description.
  std::string run(const resil::fault_hit* inject) {
    const blas_int m = call.m, n = call.n, k = call.k;
    operand<T> a{call.a, call.lda, call.transa};
    operand<T> b{call.b, call.ldb, call.transb};
    ++attempts;
    if (bordered) {
      amax_a = materialize(a, m, k, kSumRow, a_aug);
      amax_b = materialize(b, k, n, kSumCol, b_aug);
      if (call.beta != T(0)) {
        amax_c = materialize<T>({call.c, call.ldc, transpose::none}, m, n,
                                kSumRow | kSumCol, c_aug);
      } else {
        c_aug.assign(static_cast<std::size_t>(m + 1) * (n + 1), T(0));
      }
      a = {a_aug.data(), m + 1, transpose::none};
      b = {b_aug.data(), k, transpose::none};
    } else if (attempts > 1 && !c_orig.empty()) {
      copy_view<T>({c_orig.data(), m, m, n}, result());
    }
    std::string desc;
    if (inject) {
      const bool on_a = inject->kind == resil::fault_kind::bitflip_a;
      operand<T>& x = on_a ? a : b;
      const blas_int rows = on_a ? m : k, cols = on_a ? k : n;
      if (!bordered) {
        materialize(x, rows, cols, kNoBorder, op_copy);
        x = {op_copy.data(), rows, transpose::none};
      }
      T* data = bordered ? (on_a ? a_aug : b_aug).data() : op_copy.data();
      desc = apply_fault(*inject, mat_view<T>{data, x.ld, rows, cols});
      if (!desc.empty()) resil::record_health_event("inject", site, desc);
    }
    const mat_view<T> c = result();
    const blas_int edge = bordered ? 1 : 0;
    gemm_at_mode(mode, a.op, b.op, m + edge, n + edge, k, call.alpha,
                 a.data, a.ld, b.data, b.ld, call.beta, c.data, c.ld);
    return desc;
  }

  /// The one escalation loop: handle a failed check by `row` — snap a
  /// located element, then re-run (same mode first, up the ladder, a
  /// retry at the top, as the row allows) until `check` comes back clean.
  template <typename Check>
  fix escalate(const tier_row& row, const check_result& failed,
               const Check& check) {
    if constexpr (!gemm_traits<T>::is_complex) {
      if (row.snap_located && failed.state == check_result::located) {
        // The residual is (faulty - true) up to checksum noise; the snap
        // recovers the exact clean bits of a flip.  A miscorrection must
        // escalate, never pass.
        T& slot = result()(failed.i, failed.j);
        const T faulty = slot;
        slot = resil::snap_to_bitflip(
            faulty, static_cast<double>(faulty) - failed.delta, failed.tol);
        if (check().ok()) return fix::corrected;
        slot = faulty;
      }
    }
    for (bool same = row.same_mode_first, topped = false;; same = false) {
      compute_mode next = mode;
      if (!same) {
        if (!row.climbs) return fix::exhausted;
        next = effective_mode<T>(next_higher_mode(mode));
        if (next == mode) {
          if (!row.retry_at_top || topped) return fix::exhausted;
          topped = true;
        }
      }
      if (row.rerun_event) {
        resil::record_health_event(row.rerun_event, site,
                                   detail("rerun mode=%s", next));
      }
      mode = next;
      run(nullptr);
      if (check().ok()) return fix::recovered;
    }
  }

  /// printf `fmt` with the env token of `at` as its one %s.
  static std::string detail(const char* fmt, compute_mode at) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), fmt,
                  std::string(info(at).env_token).c_str());
    return buffer;
  }
};

/// Stage 6a: verify ABFT's checksum-bordered result, escalating a
/// mismatch by the abft mode's row.
template <typename T>
abft_verdict verify_abft(call_pipeline<T>& p, resil::abft_mode abft) {
  const gemm_call<T>& call = p.call;
  const double abs_alpha = std::abs(static_cast<double>(call.alpha));
  const double abs_beta = std::abs(static_cast<double>(call.beta));
  resil::abft_thresholds tau;
  resil::abft_scan sums;
  const auto check = [&] {
    tau = resil::derive_abft_thresholds(abft_model_for<T>(p.mode), call.m,
                                        call.n, call.k, abs_alpha, p.amax_a,
                                        p.amax_b, abs_beta, p.amax_c);
    sums = resil::verify_checksums(p.c_aug.data(), call.m + 1, call.m,
                                   call.n, tau);
    if (sums.clean()) return check_result{};
    if (!sums.single()) return check_result{check_result::dirty};
    return check_result{check_result::located, sums.bad_rows[0],
                        sums.bad_cols[0], sums.col_delta[0], tau.tau_col};
  };
  const check_result first = check();
  trace::record_health_counter("abft_check");
  if (first.ok()) return abft_verdict::checked;

  char detail[128];
  std::snprintf(detail, sizeof(detail), "rows=%zu cols=%zu mode=%s tau=%.3e",
                sums.bad_rows.size(), sums.bad_cols.size(),
                std::string(info(p.mode).env_token).c_str(), tau.tau_col);
  resil::record_health_event("abft_detect", p.site, detail);
  const bool detect_only = abft == resil::abft_mode::detect;
  switch (p.escalate(detect_only ? kAbftDetectRow : kAbftCorrectRow, first,
                     check)) {
    case fix::corrected:
      std::snprintf(detail, sizeof(detail), "snap@(%lld,%lld) mode=%s",
                    static_cast<long long>(first.i),
                    static_cast<long long>(first.j),
                    std::string(info(p.mode).env_token).c_str());
      resil::record_health_event("abft_correct", p.site, detail);
      return abft_verdict::corrected;
    case fix::recovered:
      resil::record_health_event("abft_correct", p.site,
                                 p.detail("rerun mode=%s", p.mode));
      return abft_verdict::recovered;
    case fix::exhausted:
      break;
  }
  // Keep the last (still mismatching) result — detection is recorded,
  // and the health sentinel / step invariants stay the backstop.
  if (detect_only) return abft_verdict::detected;
  resil::record_health_event("abft_escalate", p.site,
                             p.detail("exhausted mode=%s", p.mode));
  return abft_verdict::failed;
}

}  // namespace

template <typename T>
call_plan plan_call(const gemm_call<T>& call) {
  call_plan plan;
  plan.res = resolve_compute_mode(call.call_site, call.mode);
  // ABFT resolution order: per-call override > policy rule's abft= flag >
  // DCMESH_ABFT process default.  Complex types have no checksum path.
  if constexpr (!gemm_traits<T>::is_complex) {
    plan.abft = call.abft ? *call.abft
                          : (plan.res.abft ? *plan.res.abft
                                           : resil::active_abft_mode());
  }
  if (plan.res.automatic) {
    // An AUTO rule matched: ask the installed tuner for the concrete
    // mode.  The tuner's calibration GEMMs carry a per-call mode
    // override, so they resolve through the call_override layer and can
    // never re-enter this branch.
    const auto choice = auto_tune_resolve(
        {call.call_site, gemm_traits<T>::routine, call.m, call.n, call.k,
         gemm_traits<T>::is_complex, gemm_traits<T>::is_fp64,
         plan.res.ulp_budget});
    if (choice) {
      plan.res.mode = choice->mode;
      plan.tune = choice->provenance;
    } else {
      plan.res.mode = compute_mode::standard;
      plan.tune = auto_provenance::defaulted;
    }
  }
  // Resilience overlay: after a rollback the driver promotes matching
  // sites for a bounded number of series (resil/promotion.hpp); each
  // level is one step up the mantissa ladder on top of whatever the
  // policy/tuner resolved.  One relaxed atomic load when no promotion is
  // active.
  const int promote = resil::promotion_steps(site_of(call));
  for (int level = 0; level < promote; ++level) {
    plan.res.mode = next_higher_mode(plan.res.mode);
  }
  return plan;
}

template <typename T>
call_record run_planned(const gemm_call<T>& call, const call_plan& plan) {
  // ---- 1. validate: the only check of the argument contract before any
  // copy reads through lda/ldb/ldc.
  validate_gemm_args(call.transa, call.transb, call.m, call.n, call.k,
                     call.a, call.lda, call.b, call.ldb, call.c, call.ldc,
                     /*needs_ab=*/call.alpha != T(0));
  const mode_resolution& res = plan.res;
  const compute_mode requested = effective_mode<T>(res.mode);

  // ---- 2. arm the tiers.
  const bool dims_ok = call.m > 0 && call.n > 0;
  const bool has_work = dims_ok && call.k > 0 && call.alpha != T(0);
  const bool guard =
      res.guarded && mode_alters_arithmetic<T>(requested) && has_work;
  const resil::health_level health = resil::active_health_level();
  // At level `sample` the DCMESH_HEALTH_SAMPLE cadence gates the scan
  // (every Nth call; the && ordering advances the counter only for
  // sample-level calls with real dimensions).
  const bool scan =
      dims_ok && health != resil::health_level::off &&
      (health != resil::health_level::sample || resil::health_sample_due());
  // ABFT applies to real types on the unguarded path with real work to
  // check (the guard's sampled-reference machinery subsumes it when both
  // are requested; degenerate shapes have no checksums to verify).
  resil::abft_mode abft = resil::abft_mode::off;
  if constexpr (!gemm_traits<T>::is_complex) {
    if (!guard && has_work) abft = plan.abft;
  }
  // Exactly one fault-plan query per call with real dimensions — the
  // occurrence counter it advances is what makes re-runs fault-free.
  const std::string_view site = site_of(call);
  const std::optional<resil::fault_hit> hit =
      dims_ok ? resil::next_fault(site) : std::nullopt;
  const bool input_hit = hit && resil::is_input_fault(hit->kind);

  call_record record;
  record.routine = gemm_traits<T>::routine;
  record.transa = static_cast<char>(call.transa);
  record.transb = static_cast<char>(call.transb);
  record.m = call.m;
  record.n = call.n;
  record.k = call.k;
  record.lda = call.lda;
  record.ldb = call.ldb;
  record.ldc = call.ldc;
  record.flops = gemm_flops(gemm_traits<T>::is_complex, call.m, call.n,
                            call.k);
  record.call_site = std::string(call.call_site);
  record.source = res.source;
  record.requested_mode = requested;
  record.tune = plan.tune;

  record.start_clock();
  call_pipeline<T> p{call, abft != resil::abft_mode::off, site, requested};
  if ((guard || scan) && !p.bordered && call.beta != T(0)) {
    materialize<T>({call.c, call.ldc, transpose::none}, call.m, call.n,
                   kNoBorder, p.c_orig);
  }

  // ---- 3. run.
  record.fault = p.run(input_hit && !guard && call.k > 0 ? &*hit : nullptr);

  // ---- 4. guard.
  if (guard) {
    const auto check = [&] {
      record.guard_residual = sampled_residual(call, p.c_orig);
      return record.guard_residual > res.tolerance
                 ? check_result{check_result::dirty}
                 : check_result{};
    };
    const check_result first = check();
    record.fallback = fallback_verdict::passed;
    if (!first.ok()) {
      p.escalate(kGuardRow, first, check);
      record.fallback = fallback_verdict::promoted;
    }
    record_fallback(call.call_site,
                    record.fallback == fallback_verdict::promoted, p.mode,
                    record.guard_residual);
  }

  // ---- 5. an output-space fault lands on the settled result.
  if (hit && !input_hit) {
    record.fault = apply_fault(*hit, p.result());
    if (!record.fault.empty()) {
      resil::record_health_event("inject", site, record.fault);
    }
  } else if (input_hit && record.fault.empty()) {
    // Guarded (or k == 0): the guard's sampled reference reads the
    // pristine operands, so operand corruption is suppressed there.  The
    // occurrence still counted.
    resil::record_health_event("inject", site, "suppressed(guarded)");
  }

  // ---- 6. verify: checksums first, then the finite scan.
  if constexpr (!gemm_traits<T>::is_complex) {
    if (abft != resil::abft_mode::off) record.abft = verify_abft(p, abft);
  }
  if (scan) {
    const auto check = [&] { return scan_finite(p.result(), health); };
    const check_result first = check();
    record.health = health_verdict::clean;
    if (!first.ok()) {
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "non-finite C(%lld,%lld) mode=%s",
                    static_cast<long long>(first.i),
                    static_cast<long long>(first.j),
                    std::string(info(p.mode).env_token).c_str());
      resil::record_health_event("detect", site, detail);
      const bool recovered =
          p.escalate(kHealthRow, first, check) == fix::recovered;
      record.health = recovered ? health_verdict::recovered
                                : health_verdict::detected;
      resil::record_health_event(recovered ? "recover" : "unrecovered", site,
                                 info(p.mode).env_token);
    }
  }

  // ---- 7. record.
  if (p.bordered) copy_view(p.result(), {call.c, call.ldc, call.m, call.n});
  record.stop_clock();
  record.mode = p.mode;
  record.attempts = p.attempts;
  return record;
}

template call_plan plan_call<float>(const gemm_call<float>&);
template call_plan plan_call<double>(const gemm_call<double>&);
template call_plan plan_call<std::complex<float>>(
    const gemm_call<std::complex<float>>&);
template call_plan plan_call<std::complex<double>>(
    const gemm_call<std::complex<double>>&);

template call_record run_planned<float>(const gemm_call<float>&,
                                       const call_plan&);
template call_record run_planned<double>(const gemm_call<double>&,
                                        const call_plan&);
template call_record run_planned<std::complex<float>>(
    const gemm_call<std::complex<float>>&, const call_plan&);
template call_record run_planned<std::complex<double>>(
    const gemm_call<std::complex<double>>&, const call_plan&);

}  // namespace detail

template <typename T>
void run(const gemm_call<T>& call) {
  record_call(detail::run_planned(call, detail::plan_call(call)));
}

template void run<float>(const gemm_call<float>&);
template void run<double>(const gemm_call<double>&);
template void run<std::complex<float>>(const gemm_call<std::complex<float>>&);
template void run<std::complex<double>>(
    const gemm_call<std::complex<double>>&);

}  // namespace dcmesh::blas
