// Deterministic random number generation.
//
// Every stochastic component draws from an Rng seeded from the scenario
// configuration, so a run is fully reproducible from its seed.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace maxmin {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_{seed}, engine_{seed} {}

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) {
    MAXMIN_CHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniformReal(double lo, double hi) {
    MAXMIN_CHECK(lo <= hi);
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  /// Bernoulli trial with probability p of true.
  bool chance(double p) {
    return std::bernoulli_distribution{p}(engine_);
  }

  /// Exponentially distributed value with the given mean.
  double exponential(double mean) {
    MAXMIN_CHECK(mean > 0.0);
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }

  /// Derive an independent child generator (e.g. one per node) such that
  /// adding components does not perturb existing streams.
  ///
  /// Draws from this generator, so fork order matters: inserting a new
  /// fork() call shifts every later child. For subsystems added after the
  /// original fork sequence was frozen (fault injection, channel
  /// impairments) use stream() instead, which leaves this generator's
  /// state untouched.
  Rng fork() { return Rng{engine_() ^ 0x9e3779b97f4a7c15ULL}; }

  /// Derive an independent named stream from this generator's *seed*
  /// without consuming any randomness from it. Two streams with different
  /// names (or indices) are decorrelated; the same (seed, name, index)
  /// always yields the same stream. This is what lets optional subsystems
  /// draw randomness without perturbing existing seeded runs.
  [[nodiscard]] Rng stream(std::string_view name, std::uint64_t index = 0) const {
    // FNV-1a over the name, finalized with splitmix64 — cheap and plenty
    // for decorrelating mt19937_64 seeds.
    std::uint64_t h = fnv1a(name);
    h ^= index + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return Rng{mix64(seed_ ^ h)};
  }

  /// The seed this generator was constructed with (stream derivation key).
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace maxmin
