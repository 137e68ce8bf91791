#include "support/rng.hpp"

#include <cmath>

#include "support/diagnostics.hpp"

namespace patty {

std::uint64_t Rng::next_u64() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) fatal("Rng::next_below(0)");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % bound);
  std::uint64_t v = next_u64();
  while (v > limit) v = next_u64();
  return v % bound;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Rng::normal(double mean, double stddev) {
  // Box-Muller; regenerate until u1 is nonzero so log() is defined.
  double u1 = next_double();
  while (u1 <= 0.0) u1 = next_double();
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * 3.14159265358979323846 * u2);
}

int Rng::int_in(int lo, int hi) {
  if (hi < lo) fatal("Rng::int_in: empty range");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next_below(span));
}

Rng Rng::split() { return Rng(next_u64() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace patty
