#pragma once
// rng.hpp — deterministic, fast pseudo-random generation (xoshiro256++).
//
// Everything in the reproduction must be exactly repeatable across runs and
// compute modes (the paper stresses "the exact same computations were
// performed in each" when comparing modes), so all stochastic inputs —
// initial orbital noise, thermal velocities, test matrices — flow from this
// seeded generator rather than std::random_device.

#include <cstdint>
#include <limits>
#include <string_view>

namespace dcmesh {

/// FNV-1a 64-bit hash (payload checksums and seed derivation).
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// xoshiro256++ 1.0 by Blackman & Vigna (public domain algorithm),
/// reimplemented here.  Satisfies UniformRandomBitGenerator.
class xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seed via splitmix64 so that similar seeds give unrelated streams.
  explicit constexpr xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      word = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Standard normal via Marsaglia polar method (deterministic, no <random>).
  double normal() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = sqrt_scale(s);
    spare_ = v * factor;
    have_spare_ = true;
    return u * factor;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  static double sqrt_scale(double s) noexcept;

  std::uint64_t state_[4] = {};
  double spare_ = 0.0;
  bool have_spare_ = false;
};

}  // namespace dcmesh
