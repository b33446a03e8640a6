#include "dcmesh/resil/abft.hpp"

#include <atomic>
#include <cstring>
#include <limits>
#include <string>

#include "dcmesh/common/env.hpp"
#include "dcmesh/common/knobs.hpp"

namespace dcmesh::resil {
namespace {

// In-process override: -1 = none, else an abft_mode.
std::atomic<int> g_forced{-1};

template <typename T, typename Bits>
T snap_impl(T faulty, double target, double tol) noexcept {
  static_assert(sizeof(T) == sizeof(Bits));
  Bits bits;
  std::memcpy(&bits, &faulty, sizeof(T));
  T best{};
  double best_dist = std::numeric_limits<double>::infinity();
  for (unsigned bit = 0; bit < 8 * sizeof(T); ++bit) {
    const Bits cand_bits = bits ^ (Bits{1} << bit);
    T cand;
    std::memcpy(&cand, &cand_bits, sizeof(T));
    if (!std::isfinite(cand)) continue;
    const double dist = std::abs(static_cast<double>(cand) - target);
    if (dist < best_dist) {
      best = cand;
      best_dist = dist;
    }
  }
  if (best_dist <= tol) return best;
  const T rounded = static_cast<T>(target);
  return std::isfinite(rounded) ? rounded : faulty;
}

}  // namespace

std::string_view name(abft_mode mode) noexcept {
  switch (mode) {
    case abft_mode::off: return "off";
    case abft_mode::detect: return "detect";
    case abft_mode::correct: return "correct";
  }
  return "off";
}

std::optional<abft_mode> parse_abft_mode(std::string_view token) {
  const std::string upper = to_upper(trim(token));
  if (upper == "OFF" || upper == "0") return abft_mode::off;
  if (upper == "DETECT" || upper == "1") return abft_mode::detect;
  if (upper == "CORRECT" || upper == "2") return abft_mode::correct;
  return std::nullopt;
}

abft_mode active_abft_mode() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<abft_mode>(forced);
  return knob_value(knob::abft, parse_abft_mode).value_or(abft_mode::off);
}

void set_abft_mode(std::optional<abft_mode> mode) {
  g_forced.store(mode ? static_cast<int>(*mode) : -1,
                 std::memory_order_relaxed);
}

abft_thresholds derive_abft_thresholds(const abft_error_model& model,
                                       std::int64_t m, std::int64_t n,
                                       std::int64_t k, double abs_alpha,
                                       double amax_a, double amax_b,
                                       double abs_beta, double amax_c) {
  const double kd = static_cast<double>(k);
  // Forward-error bound of one mode-encoded k-length dot product, as an
  // absolute quantity: |α|·amax_a·amax_b · k·(2·u_repr + (k+2)·u_acc).
  const double dot_err = abs_alpha * amax_a * amax_b * kd *
                         (2.0 * model.u_repr + (kd + 2.0) * model.u_acc);
  abft_thresholds tau;
  const double md = static_cast<double>(m);
  const double nd = static_cast<double>(n);
  tau.tau_col =
      kAbftSafety * md *
      (dot_err + abs_beta * amax_c * (md + 2.0) * model.u_acc);
  tau.tau_row =
      kAbftSafety * nd *
      (dot_err + abs_beta * amax_c * (nd + 2.0) * model.u_acc);
  return tau;
}

float snap_to_bitflip(float faulty, double target, double tol) noexcept {
  return snap_impl<float, std::uint32_t>(faulty, target, tol);
}

double snap_to_bitflip(double faulty, double target, double tol) noexcept {
  return snap_impl<double, std::uint64_t>(faulty, target, tol);
}

}  // namespace dcmesh::resil
