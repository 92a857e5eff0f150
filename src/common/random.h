#ifndef BDIO_COMMON_RANDOM_H_
#define BDIO_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bdio {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// SplitMix64). Every stochastic component in the library draws from an Rng
/// so whole-cluster simulations are reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  uint64_t UniformRange(uint64_t lo, uint64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// True with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller.
  double Gaussian();
  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Exponential with the given mean (= 1/lambda). mean must be > 0.
  double Exponential(double mean);

  /// Zipf-distributed integer in [0, n) with exponent `theta` in (0, 1).
  /// Uses the rejection-inversion-free approximation adequate for workload
  /// skew modelling (popularity of keys/blocks).
  uint64_t Zipf(uint64_t n, double theta);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  uint64_t Poisson(double mean);

  /// Returns a new Rng whose stream is independent of this one (stream
  /// splitting for per-component generators).
  Rng Fork();

 private:
  uint64_t s_[4];
};

/// Fisher-Yates shuffle of `v` using `rng`.
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng->Uniform(i));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

}  // namespace bdio

#endif  // BDIO_COMMON_RANDOM_H_
