#pragma once
// kernel_isa.hpp — runtime microkernel ISA selection (internal).
//
// The blocked GEMM core dispatches its register-tile microkernel at
// runtime across three tiers: scalar (portable, autovectorized), avx2
// (explicit 6x16/4x8 YMM kernels) and avx512 (explicit 14x32/8x16 ZMM
// kernels).  `auto` resolves to an explicit tier only when it would be
// an upgrade: the build carries the kernels, the CPU advertises the
// feature set, AND the baseline compile's codegen is narrower.  When
// the library itself is built with -march=native on an AVX-512 host
// the scalar template already autovectorizes at full ZMM width and
// inlines into the blocked loop, so `auto` keeps it; on an AVX2
// baseline the ZMM kernels are still wider than anything the compiler
// emitted, so `auto` upgrades to avx512 where available.  The choice is
// overridable with DCMESH_KERNEL_ISA={auto,avx512,avx2,scalar}: a tier
// the build/CPU cannot honour and any malformed token warn once to
// stderr and fall back (down the tier ladder and to auto respectively)
// — kernel selection must never throw.  Tests and benches can force a
// kernel in-process with set_kernel_isa(); passing nullopt re-resolves
// from the environment.
//
// On AVX512-BF16 silicon the avx512 tier additionally carries a native
// BF16 engine for the split compute modes (vcvtne2ps2bf16 packing +
// vdpbf16ps dot kernels; see split_avx512bf16.cpp).  It is engaged only
// when the active tier is avx512 and can be vetoed with
// DCMESH_BF16_NATIVE=0 (or forced off/on in-process for tests with
// set_bf16_native()).  The native path accumulates k in hardware pairs,
// so it is ULP-equivalent — not bit-identical — to the software
// split engine; anything that needs the bit-exact contract (golden
// trajectories run at the default tier, the fused-vs-reference oracle)
// keeps the software path.

#include <optional>
#include <string_view>

namespace dcmesh::blas::detail {

/// Which microkernel family the blocked core uses for float/double tiles.
/// (Complex GEMMs use the fused complex engine's tile kernel, compiled once
/// per tier: complex_kernel.hpp.)
enum class kernel_isa { scalar = 0, avx2 = 1, avx512 = 2 };

/// DCMESH_BF16_NATIVE grammar: auto or a switch; only off vetoes.
[[nodiscard]] std::optional<bool> parse_bf16_native(std::string_view text);

/// True when the binary carries the AVX2+FMA kernels AND the CPU supports
/// them at runtime.
[[nodiscard]] bool avx2_kernels_available() noexcept;

/// True when the binary carries the AVX-512 kernels AND the CPU supports
/// avx512{f,bw,dq,vl} at runtime.
[[nodiscard]] bool avx512_kernels_available() noexcept;

/// True when the binary carries the AVX512-BF16 split engine AND the CPU
/// supports avx512bf16 (implies the avx512 kernel set).
[[nodiscard]] bool avx512bf16_kernels_available() noexcept;

/// The ISA the next GEMM call will dispatch to (override > env > auto).
/// The env tier is a cached knob; thread-safe.
[[nodiscard]] kernel_isa active_kernel_isa() noexcept;

/// Force an ISA in-process (testing/benching); nullopt drops the override
/// and hands control back to DCMESH_KERNEL_ISA / CPU detection.  Requesting a
/// tier the build/CPU lacks resolves down the ladder (avx512 -> avx2 ->
/// scalar) with a one-time warning.
void set_kernel_isa(std::optional<kernel_isa> isa) noexcept;

/// True when the next split-mode SGEMM will use the native BF16 engine:
/// active tier is avx512, the build/CPU carry avx512bf16, and neither
/// DCMESH_BF16_NATIVE=0 nor set_bf16_native(false) vetoed it.
[[nodiscard]] bool bf16_native_active() noexcept;

/// Force the native BF16 engine on/off in-process (testing/benching);
/// nullopt re-resolves from DCMESH_BF16_NATIVE.  Forcing it on where the
/// build/CPU cannot honour it stays off (warn once, never throw).
void set_bf16_native(std::optional<bool> enabled) noexcept;

/// Token for logs/bench labels: "avx512", "avx2" or "scalar".
[[nodiscard]] std::string_view kernel_isa_name(kernel_isa isa) noexcept;

}  // namespace dcmesh::blas::detail
