#pragma once
// Deterministic random number generation. Everything stochastic in the repo
// (study simulation, corpus generation, input-data synthesis) draws from a
// SplitMix64 stream seeded explicitly, so every table and figure
// regenerates bit-identically.

#include <cstdint>

namespace patty {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value (SplitMix64).
  std::uint64_t next_u64();

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal(double mean, double stddev);

  /// Uniform int in [lo, hi] inclusive.
  int int_in(int lo, int hi);

  /// Derive an independent child stream (for per-participant streams etc.).
  Rng split();

 private:
  std::uint64_t state_;
};

}  // namespace patty
