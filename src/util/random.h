// Deterministic random number generation.
//
// All randomness in the library flows from a single user-provided seed so
// that graph generation, crawls and benchmarks are reproducible.
#ifndef FOCUS_UTIL_RANDOM_H_
#define FOCUS_UTIL_RANDOM_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace focus {

// xoshiro256** seeded via SplitMix64. Not cryptographic; fast and well
// distributed, which is all simulation needs.
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  void Seed(uint64_t seed);

  // Uniform in [0, 2^64).
  uint64_t Next();

  // Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Approximately normal via the sum of 4 uniforms (Irwin-Hall); adequate
  // for document-length jitter and similar simulation uses.
  double Gaussian(double mean, double stddev);

  // Zipf-distributed rank in [0, n) with exponent s, via inverse-CDF over a
  // precomputed table owned by the caller (see ZipfTable).
  // (Use ZipfTable::Sample for repeated draws.)

  // Samples k distinct indices from [0, n) (k <= n), in arbitrary order.
  std::vector<size_t> SampleIndices(size_t n, size_t k);

 private:
  uint64_t s_[4];
};

// Precomputed inverse-CDF sampler for a Zipf(s) distribution over ranks
// [0, n). Rank 0 is the most probable.
class ZipfTable {
 public:
  ZipfTable(size_t n, double exponent);

  size_t Sample(Rng* rng) const;
  size_t size() const { return cdf_.size(); }

  // Probability mass of rank r.
  double Pmf(size_t r) const;

 private:
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r)
};

}  // namespace focus

#endif  // FOCUS_UTIL_RANDOM_H_
