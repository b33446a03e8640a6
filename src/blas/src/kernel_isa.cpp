#include "kernel_isa.hpp"

#include <atomic>
#include <cstdio>
#include <string>

#include "dcmesh/common/env.hpp"
#include "dcmesh/common/knobs.hpp"
#include "microkernel.hpp"

namespace dcmesh::blas::detail {
namespace {

// In-process overrides: -1 = none, else a kernel_isa / 0 off / 1 on.
std::atomic<int> g_override{-1};
std::atomic<int> g_bf16_override{-1};

[[nodiscard]] bool cpu_has_avx2_fma() noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

[[nodiscard]] bool cpu_has_avx512() noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

[[nodiscard]] bool cpu_has_avx512bf16() noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return cpu_has_avx512() && __builtin_cpu_supports("avx512bf16");
#else
  return false;
#endif
}

/// Best tier the build/CPU can honour, starting from `want` and walking
/// down the ladder.  Never warns — callers decide whether the downgrade
/// deserves one.
[[nodiscard]] kernel_isa clamp_to_available(kernel_isa want) noexcept {
  if (want == kernel_isa::avx512 && !avx512_kernels_available()) {
    want = kernel_isa::avx2;
  }
  if (want == kernel_isa::avx2 && !avx2_kernels_available()) {
    want = kernel_isa::scalar;
  }
  return want;
}

/// The tier `auto` picks on this build/CPU.
[[nodiscard]] kernel_isa auto_tier() noexcept {
#if defined(__AVX512F__)
  // The baseline build (e.g. -march=native on an AVX-512 host) already
  // vectorises the scalar template at ZMM width, where it inlines into
  // the blocked loop and beats the standalone kernels dispatched through
  // a pointer.  "auto" therefore prefers the scalar path;
  // DCMESH_KERNEL_ISA=avx512 still forces the explicit kernels.
  return kernel_isa::scalar;
#else
  // Baseline codegen is narrower than 512 bits: the explicit ZMM kernels
  // are an upgrade wherever the build/CPU carry them.
  if (avx512_kernels_available()) return kernel_isa::avx512;
#if defined(__AVX2__) && defined(__FMA__)
  // Baseline already vectorises at AVX2 width; the YMM kernels would be
  // a wash at best, so keep the inlined scalar template.
  return kernel_isa::scalar;
#else
  return avx2_kernels_available() ? kernel_isa::avx2 : kernel_isa::scalar;
#endif
#endif
}

/// DCMESH_KERNEL_ISA grammar: the tier to dispatch to.  A tier the
/// build/CPU cannot honour falls down the ladder, warning once per parse.
std::optional<kernel_isa> parse_isa(std::string_view text) {
  const auto token = parse_token(row(knob::kernel_isa).grammar, text);
  if (!token) return std::nullopt;
  if (*token == 0) return auto_tier();
  const kernel_isa want = *token == 1   ? kernel_isa::avx512
                          : *token == 2 ? kernel_isa::avx2
                                        : kernel_isa::scalar;
  const kernel_isa got = clamp_to_available(want);
  if (got != want) {
    std::fprintf(stderr,
                 "dcmesh: DCMESH_KERNEL_ISA=%s requested but this build/CPU "
                 "cannot honour it; falling back down the tier ladder\n",
                 std::string(text).c_str());
  }
  return got;
}

}  // namespace

/// DCMESH_BF16_NATIVE grammar: auto (on wherever the avx512 tier and
/// silicon can honour it) or a switch; only an off token vetoes.
std::optional<bool> parse_bf16_native(std::string_view text) {
  if (to_lower(text) == "auto") return true;
  return parse_switch(text);
}

bool avx2_kernels_available() noexcept {
#if defined(DCMESH_HAVE_AVX2_KERNELS)
  static const bool available = cpu_has_avx2_fma();
  return available;
#else
  return false;
#endif
}

bool avx512_kernels_available() noexcept {
#if defined(DCMESH_HAVE_AVX512_KERNELS)
  static const bool available = cpu_has_avx512();
  return available;
#else
  return false;
#endif
}

bool avx512bf16_kernels_available() noexcept {
#if defined(DCMESH_HAVE_AVX512BF16_KERNELS)
  static const bool available = cpu_has_avx512bf16();
  return available;
#else
  return false;
#endif
}

kernel_isa active_kernel_isa() noexcept {
  const int forced = g_override.load(std::memory_order_acquire);
  if (forced >= 0) return static_cast<kernel_isa>(forced);
  const auto& isa = knob_value(knob::kernel_isa, parse_isa);
  return isa ? *isa : auto_tier();
}

void set_kernel_isa(std::optional<kernel_isa> isa) noexcept {
  if (!isa.has_value()) {
    g_override.store(-1, std::memory_order_release);
    return;
  }
  const kernel_isa got = clamp_to_available(*isa);
  static std::atomic<bool> warned{false};
  if (got != *isa && !warned.exchange(true)) {
    std::fprintf(stderr,
                 "dcmesh: set_kernel_isa(%s) on a build/CPU that cannot "
                 "honour it; falling back down the tier ladder\n",
                 kernel_isa_name(*isa).data());
  }
  g_override.store(static_cast<int>(got), std::memory_order_release);
}

bool bf16_native_active() noexcept {
  if (active_kernel_isa() != kernel_isa::avx512) return false;
  if (!avx512bf16_kernels_available()) return false;
  const int forced = g_bf16_override.load(std::memory_order_acquire);
  if (forced >= 0) return forced != 0;
  return knob_value(knob::bf16_native, parse_bf16_native).value_or(true);
}

void set_bf16_native(std::optional<bool> enabled) noexcept {
  if (!enabled.has_value()) {
    g_bf16_override.store(-1, std::memory_order_release);
    return;
  }
  static std::atomic<bool> warned{false};
  if (*enabled && !avx512bf16_kernels_available() &&
      !warned.exchange(true)) {
    std::fprintf(stderr,
                 "dcmesh: set_bf16_native(true) on a build/CPU without "
                 "AVX512-BF16; the software split engine stays active\n");
  }
  g_bf16_override.store(*enabled ? 1 : 0, std::memory_order_release);
}

std::string_view kernel_isa_name(kernel_isa isa) noexcept {
  switch (isa) {
    case kernel_isa::avx512: return "avx512";
    case kernel_isa::avx2: return "avx2";
    default: return "scalar";
  }
}

kernel_desc<float> resolve_kernel_desc_f32() noexcept {
  switch (active_kernel_isa()) {
#if defined(DCMESH_HAVE_AVX512_KERNELS)
    case kernel_isa::avx512:
      return {&micro_kernel_avx512_f32, 14, 32};
#endif
#if defined(DCMESH_HAVE_AVX2_KERNELS)
    case kernel_isa::avx2:
      return {&micro_kernel_avx2_f32, micro_tile<float>::mr,
              micro_tile<float>::nr};
#endif
    default:
      return {&micro_kernel_scalar<float>, micro_tile<float>::mr,
              micro_tile<float>::nr};
  }
}

kernel_desc<double> resolve_kernel_desc_f64() noexcept {
  switch (active_kernel_isa()) {
#if defined(DCMESH_HAVE_AVX512_KERNELS)
    case kernel_isa::avx512:
      return {&micro_kernel_avx512_f64, 8, 16};
#endif
#if defined(DCMESH_HAVE_AVX2_KERNELS)
    case kernel_isa::avx2:
      return {&micro_kernel_avx2_f64, micro_tile<double>::mr,
              micro_tile<double>::nr};
#endif
    default:
      return {&micro_kernel_scalar<double>, micro_tile<double>::mr,
              micro_tile<double>::nr};
  }
}

}  // namespace dcmesh::blas::detail
