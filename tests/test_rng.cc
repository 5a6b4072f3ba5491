// Tests for the deterministic PRNG and its distributions.
#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace sora {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(77);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next_u64());
  a.reseed(77);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), first[i]);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng a(9), b(9);
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fa.next_u64(), fb.next_u64());
  // Parent and child produce different streams.
  Rng c(10);
  Rng fc = c.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c.next_u64() == fc.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBounds) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeMoments) {
  Rng r(6);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.uniform(10.0, 20.0);
  EXPECT_NEAR(sum / n, 15.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng r(7);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng r(8);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, LognormalMeanCv) {
  Rng r(9);
  const int n = 400000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.lognormal_mean_cv(100.0, 0.5);
    ASSERT_GT(x, 0.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 100.0, 1.0);
  EXPECT_NEAR(std::sqrt(var) / mean, 0.5, 0.02);
}

TEST(Rng, LognormalZeroCvIsDeterministic) {
  Rng r(10);
  EXPECT_DOUBLE_EQ(r.lognormal_mean_cv(42.0, 0.0), 42.0);
}

TEST(Rng, UniformIntBounds) {
  Rng r(14);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.uniform_int(7), 7u);
  }
}

}  // namespace
}  // namespace sora
