// Deterministic pseudo-random number generation.
//
// Every stochastic component of the simulator owns an Rng seeded from the
// experiment seed, so a run is fully reproducible. The generator is
// xoshiro256++ (public domain, Blackman & Vigna), seeded via SplitMix64.
#pragma once

#include <cmath>
#include <cstdint>

namespace sora {

/// xoshiro256++ generator with distribution helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
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

  /// Derive an independent child generator (for per-component streams).
  Rng fork() { return Rng(next_u64()); }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n) { return next_u64() % n; }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  /// Standard normal via Marsaglia polar method.
  double normal() {
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
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    have_spare_ = true;
    return u * m;
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Lognormal parameterized by its own mean and coefficient of variation
  /// (cv = stddev/mean). Used for CPU service demands: right-skewed, as
  /// observed for real microservice processing times.
  double lognormal_mean_cv(double mean, double cv) {
    if (cv <= 0.0) return mean;
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::exp(mu + std::sqrt(sigma2) * normal());
  }

  /// Lognormal with precomputed parameters (see LognormalSampler): one exp
  /// plus a normal draw per sample, no per-sample log/sqrt.
  double lognormal_musigma(double mu, double sigma) {
    return std::exp(mu + sigma * normal());
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

/// Precomputed lognormal(mean, cv) parameters for hot sampling loops.
/// sample(rng) draws the exact same value lognormal_mean_cv(mean, cv) would
/// (identical expression tree), but the two logs and the sqrt are paid once
/// here instead of per sample.
struct LognormalSampler {
  double mean = 0.0;
  double mu = 0.0;
  double sigma = 0.0;
  bool degenerate = true;  ///< cv <= 0: sample() returns mean exactly.

  LognormalSampler() = default;
  LognormalSampler(double mean_in, double cv) : mean(mean_in) {
    if (cv > 0.0) {
      const double sigma2 = std::log(1.0 + cv * cv);
      mu = std::log(mean) - 0.5 * sigma2;
      sigma = std::sqrt(sigma2);
      degenerate = false;
    }
  }

  double sample(Rng& rng) const {
    return degenerate ? mean : rng.lognormal_musigma(mu, sigma);
  }
};

}  // namespace sora
