#include "dcmesh/tune/autotuner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>

#include <optional>

#include "dcmesh/blas/gemm_call.hpp"
#include "dcmesh/common/knobs.hpp"
#include "dcmesh/common/file_lock.hpp"
#include "dcmesh/common/rng.hpp"
#include "dcmesh/xehpc/roofline.hpp"

// Engine-private headers (tune's CMakeLists adds src/blas/src): the
// blocking probe times candidate MC/NC blockings against the active
// kernel tier's quanta.
#include "blocking.hpp"
#include "kernel_isa.hpp"

namespace dcmesh::tune {
namespace {

using blas::blas_int;
using blas::compute_mode;

/// Calibration operands are clamped to these dimensions: big enough that
/// blocking/split overheads show, small enough that the FP64 reference
/// triple loop stays in the tens of milliseconds.
constexpr blas_int kMaxCalibMN = 96;
constexpr blas_int kMaxCalibK = 768;

/// Target wall time per timed blocking candidate; repetitions are scaled
/// to reach it.
constexpr double kTimingTargetSeconds = 1e-3;
constexpr int kMaxTimingReps = 16;

/// Blocking probes use larger operands than mode calibration (blocking
/// effects only show once several MC/NC blocks are in play) but skip the
/// FP64 reference entirely — blocking cannot change results, so there is
/// nothing to error-measure.
constexpr blas_int kMaxProbeM = 512;
constexpr blas_int kMaxProbeN = 1024;
constexpr blas_int kMaxProbeK = 512;

/// Below this nominal flop count the per-call blocking is noise; don't
/// spend probe GEMMs (or a wisdom field) on it.  128 x 128 x 512 FP32.
constexpr double kMinBlockingProbeFlops = 16.0 * 1024.0 * 1024.0;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename T>
struct scalar_traits {
  using ref_type = double;
  static constexpr bool is_complex = false;
};
template <typename R>
struct scalar_traits<std::complex<R>> {
  using ref_type = std::complex<double>;
  static constexpr bool is_complex = true;
};

template <typename T>
void fill_uniform(std::vector<T>& v, xoshiro256& rng) {
  for (auto& x : v) {
    if constexpr (scalar_traits<T>::is_complex) {
      x = T(static_cast<typename T::value_type>(rng.uniform(-1.0, 1.0)),
            static_cast<typename T::value_type>(rng.uniform(-1.0, 1.0)));
    } else {
      x = static_cast<T>(rng.uniform(-1.0, 1.0));
    }
  }
}

/// FP64 (or complex-FP64) triple-loop reference for C = A*B on the
/// calibration operands (column-major, no transposes, alpha=1, beta=0).
template <typename T>
std::vector<typename scalar_traits<T>::ref_type> reference_product(
    const std::vector<T>& a, const std::vector<T>& b, blas_int m,
    blas_int n, blas_int k) {
  using ref_t = typename scalar_traits<T>::ref_type;
  std::vector<ref_t> c(static_cast<std::size_t>(m) * n, ref_t(0));
  for (blas_int j = 0; j < n; ++j) {
    for (blas_int p = 0; p < k; ++p) {
      const ref_t bpj = ref_t(b[static_cast<std::size_t>(j) * k + p]);
      for (blas_int i = 0; i < m; ++i) {
        c[static_cast<std::size_t>(j) * m + i] +=
            ref_t(a[static_cast<std::size_t>(p) * m + i]) * bpj;
      }
    }
  }
  return c;
}

/// Largest componentwise deviation of `got` from `ref`, in ULPs of the
/// storage precision.  Each component's deviation is normalised by its own
/// reference magnitude, floored at a tenth of the largest magnitude:
/// without the floor a single near-cancelled component dominates the
/// metric by orders of magnitude and no mode — not even standard — stays
/// inside a useful budget.
template <typename T>
double componentwise_error_ulp(
    const std::vector<T>& got,
    const std::vector<typename scalar_traits<T>::ref_type>& ref,
    double storage_eps) {
  double max_abs = 0.0;
  for (const auto& r : ref) {
    if constexpr (scalar_traits<T>::is_complex) {
      max_abs = std::max({max_abs, std::abs(r.real()), std::abs(r.imag())});
    } else {
      max_abs = std::max(max_abs, std::abs(r));
    }
  }
  const double floor = std::max(0.1 * max_abs, 1e-300);
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if constexpr (scalar_traits<T>::is_complex) {
      const double dre = std::abs(double(got[i].real()) - ref[i].real());
      const double dim = std::abs(double(got[i].imag()) - ref[i].imag());
      const double nre = std::max(std::abs(ref[i].real()), floor);
      const double nim = std::max(std::abs(ref[i].imag()), floor);
      worst = std::max({worst, dre / (storage_eps * nre),
                        dim / (storage_eps * nim)});
    } else {
      const double d = std::abs(double(got[i]) - ref[i]);
      const double n = std::max(std::abs(ref[i]), floor);
      worst = std::max(worst, d / (storage_eps * n));
    }
  }
  return worst;
}

/// Run every eligible mode once on deterministic sample operands and
/// measure its error against the FP64 reference.  The GEMMs dispatch
/// through the public descriptor path under the kCalibrationSite tag with
/// an explicit mode override — visible to verbose/metrics, invisible to
/// the policy engine (no recursion).
template <typename T>
std::vector<mode_measurement> calibrate_key(
    const std::vector<compute_mode>& modes, blas_int m, blas_int n,
    blas_int k, double ulp_budget, std::uint64_t seed) {
  const blas_int cm = std::clamp<blas_int>(m, 1, kMaxCalibMN);
  const blas_int cn = std::clamp<blas_int>(n, 1, kMaxCalibMN);
  const blas_int ck = std::clamp<blas_int>(k, 1, kMaxCalibK);

  xoshiro256 rng(seed);
  std::vector<T> a(static_cast<std::size_t>(cm) * ck);
  std::vector<T> b(static_cast<std::size_t>(ck) * cn);
  std::vector<T> c(static_cast<std::size_t>(cm) * cn);
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  const auto ref = reference_product(a, b, cm, cn, ck);

  const double storage_eps =
      sizeof(typename scalar_traits<T>::ref_type) == sizeof(T)
          ? 0x1.0p-52   // FP64 storage (ZGEMM)
          : 0x1.0p-23;  // FP32 storage (SGEMM/CGEMM)

  std::vector<mode_measurement> out;
  out.reserve(modes.size());
  for (const compute_mode mode : modes) {
    blas::gemm_call<T> call;
    call.m = cm;
    call.n = cn;
    call.k = ck;
    call.a = a.data();
    call.lda = cm;
    call.b = b.data();
    call.ldb = ck;
    call.c = c.data();
    call.ldc = cm;
    call.call_site = kCalibrationSite;
    call.mode = mode;
    // Calibration measures the bare kernel: a process-wide DCMESH_ABFT
    // default must not add checksum GEMMs to the calibration run.
    call.abft = resil::abft_mode::off;
    blas::run(call);

    mode_measurement meas;
    meas.mode = mode;
    meas.err_ulp = componentwise_error_ulp(c, ref, storage_eps);
    meas.within_budget = meas.err_ulp <= ulp_budget;
    out.push_back(meas);
  }
  return out;
}

std::vector<compute_mode> eligible_modes(bool is_complex, bool is_fp64) {
  if (is_fp64) {
    // ZGEMM: only 3M applies; DGEMM never reaches calibration.
    return {compute_mode::standard, compute_mode::complex_3m};
  }
  std::vector<compute_mode> modes = {
      compute_mode::standard, compute_mode::float_to_bf16,
      compute_mode::float_to_tf32, compute_mode::float_to_bf16x2,
      compute_mode::float_to_bf16x3};
  if (is_complex) modes.push_back(compute_mode::complex_3m);
  return modes;
}

/// The effective budget: the policy rule's `ulp=` flag, else
/// DCMESH_TUNE_ULP_BUDGET, else the default (also for a malformed value).
double effective_budget(double request_budget) {
  if (request_budget > 0.0) return request_budget;
  return knob_value(knob::tune_ulp_budget, parse_ulp_budget)
      .value_or(kDefaultUlpBudget);
}

/// Time candidate MC/NC blockings for the decided mode on real blocked
/// kernels and record the winner in the entry.  Candidates are halvings/
/// doublings of the active tier's default, legalized to the tile quanta.
/// Probe GEMMs run through the ordinary dispatcher under the calibration
/// site tag with explicit mode + blocking overrides, so they are visible
/// to verbose/metrics and can never recurse into the tuner.
void probe_blocking(wisdom_entry& entry,
                    const blas::auto_tune_request& req, compute_mode mode,
                    std::uint64_t seed) {
  namespace bd = blas::detail;
  const bd::kernel_isa isa = bd::active_kernel_isa();
  const bd::gemm_blocking def = bd::default_blocking(isa);
  const blas_int pm = std::clamp<blas_int>(req.m, 1, kMaxProbeM);
  const blas_int pn = std::clamp<blas_int>(req.n, 1, kMaxProbeN);
  const blas_int pk = std::clamp<blas_int>(req.k, 1, kMaxProbeK);

  xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<float> a(static_cast<std::size_t>(pm) * pk);
  std::vector<float> b(static_cast<std::size_t>(pk) * pn);
  std::vector<float> c(static_cast<std::size_t>(pm) * pn);
  fill_uniform(a, rng);
  fill_uniform(b, rng);

  std::vector<bd::gemm_blocking> candidates;
  for (const blas_int mc : {def.mc / 2, def.mc, def.mc * 2}) {
    for (const blas_int nc : {def.nc / 2, def.nc, def.nc * 2}) {
      const bd::gemm_blocking cand = bd::legalize_blocking(isa, mc, nc);
      if (std::find(candidates.begin(), candidates.end(), cand) ==
          candidates.end()) {
        candidates.push_back(cand);
      }
    }
  }

  bd::gemm_blocking best = def;
  double best_seconds = -1.0;
  for (const bd::gemm_blocking& cand : candidates) {
    blas::gemm_call<float> call;
    call.m = pm;
    call.n = pn;
    call.k = pk;
    call.a = a.data();
    call.lda = pm;
    call.b = b.data();
    call.ldb = pk;
    call.c = c.data();
    call.ldc = pm;
    call.call_site = kCalibrationSite;
    call.mode = mode;
    call.abft = resil::abft_mode::off;
    call.block_m = cand.mc;
    call.block_n = cand.nc;

    // Warm run (packs the arena at this blocking), then a timed batch.
    const double probe_start = now_seconds();
    blas::run(call);
    const double probe = std::max(now_seconds() - probe_start, 1e-9);
    const int reps = std::clamp(
        static_cast<int>(kTimingTargetSeconds / probe), 1, kMaxTimingReps);
    const double start = now_seconds();
    for (int r = 0; r < reps; ++r) blas::run(call);
    const double seconds =
        std::max(now_seconds() - start, 1e-9) / reps;
    if (best_seconds < 0.0 || seconds < best_seconds) {
      best_seconds = seconds;
      best = cand;
    }
  }

  entry.block_m = best.mc;
  entry.block_n = best.nc;
  entry.block_isa = std::string(bd::kernel_isa_name(isa));
}

blas::auto_tune_choice make_choice(const wisdom_entry& entry,
                                   blas::auto_provenance provenance) {
  const auto mode = blas::parse_compute_mode(entry.mode_token);
  blas::auto_tune_choice choice{mode.value_or(compute_mode::standard),
                                provenance, entry.err_ulp};
  // Serve the tuned blocking only on the tier it was measured for: the
  // quanta (and the cache economics) differ across tiers, and a mismatch
  // would be legalized into something never measured.
  if (entry.block_m > 0 &&
      entry.block_isa ==
          blas::detail::kernel_isa_name(blas::detail::active_kernel_isa())) {
    choice.block_m = static_cast<blas_int>(entry.block_m);
    choice.block_n = static_cast<blas_int>(entry.block_n);
  }
  return choice;
}

}  // namespace

std::optional<double> parse_ulp_budget(std::string_view text) {
  const auto value = parse_positive_real(text);
  return value && std::isfinite(*value) ? value : std::nullopt;
}

autotuner::autotuner() { state_.follow_env = true; }

autotuner::autotuner(std::string cache_path) {
  state_.path = std::move(cache_path);
}

void autotuner::reload_if_needed(state& s) {
  if (s.follow_env) {
    const auto& knob_path = knob_value(knob::tune_cache, parse_path);
    const std::string_view path =
        knob_path ? std::string_view(*knob_path) : std::string_view();
    if (path != s.path) {
      // Repointed: start over against the new file.
      state fresh;
      fresh.follow_env = true;
      fresh.path = path;
      s = std::move(fresh);
    }
  }
  if (s.loaded) return;
  s.loaded = true;
  if (s.path.empty()) return;
  const wisdom_file file = load_wisdom(s.path);
  if (file.existed && !file.version_ok) {
    // merge_wisdom rebuilds a stale/corrupt store on the next persist.
    std::fprintf(stderr,
                 "dcmesh: wisdom file \"%s\" has a stale or corrupt header; "
                 "ignoring it (it will be rebuilt)\n",
                 s.path.c_str());
    return;
  }
  s.file_generation = file.generation;
  std::size_t dropped = file.rejected_lines;
  for (const auto& entry : file.entries) {
    // Entries naming modes this build does not know are stale — drop them.
    if (!blas::parse_compute_mode(entry.mode_token)) {
      ++dropped;
      continue;
    }
    s.decisions.emplace(entry.key(), entry);
  }
  if (dropped > 0) {
    std::fprintf(stderr,
                 "dcmesh: skipped %zu malformed line(s) in wisdom file "
                 "\"%s\"\n",
                 dropped, s.path.c_str());
  }
}

bool autotuner::refresh_from_store(state& s) {
  // Cheap probe first: only re-parse the store when its header says a
  // sibling merged since we last looked.
  const auto gen = peek_wisdom_generation(s.path);
  if (!gen || *gen == s.file_generation) return false;
  const wisdom_file file = load_wisdom(s.path);
  if (!file.version_ok) return false;
  for (const auto& entry : file.entries) {
    if (!blas::parse_compute_mode(entry.mode_token)) continue;
    const auto [it, inserted] = s.decisions.emplace(entry.key(), entry);
    if (!inserted && entry.generation > it->second.generation) {
      it->second = entry;
    }
  }
  s.file_generation = file.generation;
  ++s.stats.refreshes;
  return true;
}

blas::auto_tune_choice autotuner::decide(state& s,
                                         const blas::auto_tune_request& req) {
  ++s.stats.resolutions;

  // Plain FP64 has no alternative modes to weigh; don't burn wisdom
  // entries (or calibration time) on a fixed answer.
  if (req.is_fp64 && !req.is_complex) {
    return {compute_mode::standard, blas::auto_provenance::defaulted, 0.0};
  }
  if (req.m <= 0 || req.n <= 0 || req.k <= 0) {
    return {compute_mode::standard, blas::auto_provenance::defaulted, 0.0};
  }

  const double budget = effective_budget(req.ulp_budget);
  const shape_class cls = classify_shape(req.m, req.n, req.k);
  const std::string key = wisdom_key(req.routine, req.call_site, cls, budget);

  if (const auto it = s.decisions.find(key); it != s.decisions.end()) {
    ++s.stats.cache_hits;
    return make_choice(it->second, blas::auto_provenance::cached);
  }

  // Miss.  When a store is attached, enter its cross-process critical
  // section for the whole cold path: refresh from the store (a sibling
  // may have resolved this key while we were busy — if so, adopt its
  // decision with zero calibration GEMMs), and otherwise calibrate while
  // still holding the lock, so no sibling duplicates the work.  This is
  // double-checked locking across processes; lock failure (read-only
  // store) degrades to optimistic calibration.
  std::optional<file_lock> store_lock;
  if (!s.path.empty()) {
    store_lock.emplace(s.path);
    if (refresh_from_store(s)) {
      if (const auto it = s.decisions.find(key); it != s.decisions.end()) {
        ++s.stats.cache_hits;
        ++s.stats.shared_hits;
        return make_choice(it->second, blas::auto_provenance::cached);
      }
    }
  }

  // Calibrate: measure the error of every eligible mode on seeded
  // operands, so the same key always measures the same errors.
  const auto modes = eligible_modes(req.is_complex, req.is_fp64);
  const std::uint64_t seed = fnv1a(key);

  std::vector<mode_measurement> measurements;
  if (req.is_fp64) {
    measurements = calibrate_key<std::complex<double>>(modes, req.m, req.n,
                                                       req.k, budget, seed);
  } else if (req.is_complex) {
    measurements = calibrate_key<std::complex<float>>(modes, req.m, req.n,
                                                      req.k, budget, seed);
  } else {
    measurements =
        calibrate_key<float>(modes, req.m, req.n, req.k, budget, seed);
  }

  // Rank the modes that stay inside the budget by the xehpc roofline's
  // device time for the request shape (the default spec core::driver also
  // annotates spans with).  Host wall time never ranks modes: emulated
  // modes on the host invert the device ordering.  Ties keep the earlier
  // mode in eligible_modes order; standard is the safety net when nothing
  // fits the budget (a sub-ULP budget, say).
  xehpc::gemm_shape shape;
  shape.m = req.m;
  shape.n = req.n;
  shape.k = req.k;
  shape.is_complex = req.is_complex;
  shape.precision =
      req.is_fp64 ? xehpc::gemm_precision::fp64 : xehpc::gemm_precision::fp32;
  const mode_measurement* best = &measurements.front();  // standard
  double best_seconds = -1.0;
  for (const auto& meas : measurements) {
    if (!meas.within_budget) continue;
    const double seconds =
        xehpc::model_gemm({}, {}, shape, meas.mode).total_s();
    if (best_seconds < 0.0 || seconds < best_seconds) {
      best = &meas;
      best_seconds = seconds;
    }
  }

  wisdom_entry entry;
  entry.routine = std::string(req.routine);
  entry.site = std::string(req.call_site);
  entry.cls = cls;
  entry.ulp_budget = budget;
  entry.mode_token = std::string(blas::info(best->mode).env_token);
  entry.err_ulp = best->err_ulp;
  ++s.stats.calibrations;

  // Cold-path blocking probe: measure per-shape MC/NC for real FP32 GEMMs
  // big enough for blocking to matter, still inside the store lock so the
  // whole fleet probes each key at most once.  Blocking never changes
  // results, so host time is the right judge here.  Cached entries carry
  // their blocking, so warm stores never re-enter this (blocking_probes
  // == 0).
  const double nominal_flops = 2.0 * double(req.m) * double(req.n) *
                               double(req.k);
  if (!req.is_complex && !req.is_fp64 &&
      nominal_flops >= kMinBlockingProbeFlops) {
    probe_blocking(entry, req, best->mode, seed);
    ++s.stats.blocking_probes;
  }

  s.decisions.emplace(key, entry);
  s.log.push_back({key, entry, std::move(measurements)});

  if (!s.path.empty()) {
    const merge_result merged = merge_wisdom(
        s.path, {entry}, store_lock ? &*store_lock : nullptr);
    if (merged.ok) {
      s.file_generation = merged.generation;
      // Stamp the published generation so a later flush() re-asserts
      // this decision instead of deferring to the stored copy.
      s.decisions[key].generation = merged.generation;
    } else if (!s.persist_warned) {
      s.persist_warned = true;
      std::fprintf(stderr,
                   "dcmesh: cannot write %s file \"%s\"; tuning decisions "
                   "kept in memory only\n",
                   std::string(kTuneCacheEnvVar).c_str(), s.path.c_str());
    }
  }

  return make_choice(entry, blas::auto_provenance::modeled);
}

blas::auto_tune_choice autotuner::resolve(
    const blas::auto_tune_request& request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  reload_if_needed(state_);
  return decide(state_, request);
}

std::vector<wisdom_entry> autotuner::decisions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<wisdom_entry> out;
  out.reserve(state_.decisions.size());
  for (const auto& [_, entry] : state_.decisions) out.push_back(entry);
  return out;
}

std::vector<calibration_record> autotuner::calibration_log() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return state_.log;
}

tuner_stats autotuner::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return state_.stats;
}

bool autotuner::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (state_.path.empty()) return false;
  std::vector<wisdom_entry> all;
  all.reserve(state_.decisions.size());
  for (const auto& [_, entry] : state_.decisions) all.push_back(entry);
  const merge_result merged = merge_wisdom(state_.path, all);
  if (!merged.ok) return false;
  state_.file_generation = merged.generation;
  return true;
}

void autotuner::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  state fresh;
  fresh.follow_env = state_.follow_env;
  fresh.path = state_.path;
  state_ = std::move(fresh);
}

std::string autotuner::cache_path() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return state_.path;
}

autotuner& default_tuner() {
  static autotuner tuner;
  return tuner;
}

void install_auto_tuner() {
  blas::set_auto_tune_hook(
      [](const blas::auto_tune_request& request)
          -> std::optional<blas::auto_tune_choice> {
        return default_tuner().resolve(request);
      });
}

}  // namespace dcmesh::tune
