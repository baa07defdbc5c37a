// Deterministic pseudo-random number generation for reproducible simulations.
//
// We use xoshiro256++ (Blackman & Vigna) seeded through SplitMix64, rather
// than std::mt19937, because it is faster, has a tiny state, and — unlike the
// standard distributions — the sampling helpers below are guaranteed to be
// bit-reproducible across standard-library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace dtn {

/// Deterministically derives an independent seed for stream `stream` from a
/// base seed: one SplitMix64 step over `base + (stream + 1) * golden-ratio`.
/// Used to give every sweep cell / repetition its own RNG stream as a pure
/// function of its grid index, so results never depend on the draw order of
/// a shared stream (and therefore not on thread scheduling either).
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

/// xoshiro256++ engine with SplitMix64 seeding.
///
/// Satisfies UniformRandomBitGenerator, so it can also be plugged into
/// <random> distributions when exact reproducibility across platforms is not
/// required.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64 random bits.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed sample with the given rate (mean 1/rate).
  /// Requires rate > 0.
  double exponential(double rate);

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Pareto-distributed sample with scale x_m > 0 and shape alpha > 0.
  /// Used to draw heterogeneous node popularity weights.
  double pareto(double x_m, double alpha);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace dtn
