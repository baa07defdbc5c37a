#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace dtn {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  std::uint64_t x = base + (stream + 1) * 0x9E3779B97F4A7C15ULL;
  return splitmix64(x);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() {
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

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL) - (~0ULL) % range;
  std::uint64_t r;
  do {
    r = (*this)();
  } while (r >= limit);
  return lo + static_cast<std::int64_t>(r % range);
}

double Rng::exponential(double rate) {
  assert(rate > 0.0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);  // avoid log(0); uniform() < 1 so 1-u > 0 as well
  return -std::log(u) / rate;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::pareto(double x_m, double alpha) {
  assert(x_m > 0.0 && alpha > 0.0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return x_m / std::pow(u, 1.0 / alpha);
}

}  // namespace dtn
