// Deterministic pseudo-random number generation.
//
// Every stochastic component in grgad takes an explicit 64-bit seed and draws
// from an Rng instance, so that datasets, model initializations, and sampled
// augmentations are exactly reproducible across runs and platforms. The
// generator is xoshiro256** seeded via SplitMix64 (the reference seeding
// procedure), chosen over std::mt19937 for speed and for a guaranteed stable
// stream across standard libraries.
#ifndef GRGAD_UTIL_RNG_H_
#define GRGAD_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace grgad {

/// SplitMix64 step; used to expand a user seed into generator state.
uint64_t SplitMix64Next(uint64_t* state);

/// xoshiro256** PRNG with helper distributions.
///
/// All distribution helpers are implemented from first principles (no
/// std::*_distribution) so streams are identical across standard libraries.
class Rng {
 public:
  /// Seeds the generator; equal seeds yield equal streams.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Precondition: n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box–Muller (cached spare value).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t s_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace grgad

#endif  // GRGAD_UTIL_RNG_H_
