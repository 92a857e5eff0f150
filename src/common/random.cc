#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace bdio {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// The (n, theta)-only terms of Rng::Zipf.
struct ZipfConstants {
  uint64_t n = 0;  ///< 0 marks an empty memo slot.
  double theta = 0;
  double zetan = 0;
  double eta = 0;
};

// zetan costs up to 10,000 std::pow calls, and callers draw many values from
// a handful of fixed (n, theta) pairs, so each thread keeps the last four.
const ZipfConstants& ZipfConstantsFor(uint64_t n, double theta) {
  constexpr size_t kSlots = 4;
  thread_local ZipfConstants memo[kSlots];
  thread_local size_t next_slot = 0;
  for (const ZipfConstants& c : memo) {
    if (c.n == n && c.theta == theta) return c;
  }
  ZipfConstants& c = memo[next_slot];
  next_slot = (next_slot + 1) % kSlots;
  c.n = n;
  c.theta = theta;
  c.zetan = [&] {
    // Harmonic-like normalizer; for modelling purposes an approximation over
    // a capped number of terms keeps generation O(1) amortized.
    double z = 0;
    const uint64_t terms = n < 10000 ? n : 10000;
    for (uint64_t i = 1; i <= terms; ++i) z += 1.0 / std::pow(i, theta);
    if (n > terms) {
      // Integral tail approximation for the remaining terms.
      z += (std::pow(static_cast<double>(n), 1 - theta) -
            std::pow(static_cast<double>(terms), 1 - theta)) /
           (1 - theta);
    }
    return z;
  }();
  c.eta = (1 - std::pow(2.0 / static_cast<double>(n), 1 - theta)) /
          (1 - (1.0 / std::pow(2.0, theta)) * 2.0 / c.zetan);
  return c;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t state = seed;
  for (auto& s : s_) s = SplitMix64(&state);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t bound) {
  BDIO_CHECK(bound > 0) << "Uniform bound must be positive";
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

uint64_t Rng::UniformRange(uint64_t lo, uint64_t hi) {
  BDIO_CHECK(lo <= hi);
  return lo + Uniform(hi - lo + 1);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return NextDouble() < p;
}

double Rng::Gaussian() {
  // Box-Muller; discards the second variate for statelessness.
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::Exponential(double mean) {
  BDIO_CHECK(mean > 0);
  double u = NextDouble();
  if (u < 1e-300) u = 1e-300;
  return -mean * std::log(u);
}

uint64_t Rng::Zipf(uint64_t n, double theta) {
  BDIO_CHECK(n > 0);
  BDIO_CHECK(theta > 0 && theta < 1.0);
  // Classic YCSB-style zipfian via the Gray et al. quick formula.
  const double alpha = 1.0 / (1.0 - theta);
  const ZipfConstants& k = ZipfConstantsFor(n, theta);
  double u = NextDouble();
  double uz = u * k.zetan;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta)) return 1;
  uint64_t v = static_cast<uint64_t>(
      static_cast<double>(n) * std::pow(k.eta * u - k.eta + 1.0, alpha));
  return v >= n ? n - 1 : v;
}

uint64_t Rng::Poisson(double mean) {
  BDIO_CHECK(mean >= 0);
  if (mean == 0) return 0;
  if (mean > 64) {
    double v = Gaussian(mean, std::sqrt(mean));
    return v <= 0 ? 0 : static_cast<uint64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  double prod = NextDouble();
  uint64_t k = 0;
  while (prod > limit) {
    prod *= NextDouble();
    ++k;
  }
  return k;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xD1B54A32D192ED03ULL); }

}  // namespace bdio
