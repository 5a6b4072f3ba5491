// Tests for the Kneedle knee detector.
#include "core/kneedle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace sora {
namespace {

std::pair<std::vector<double>, std::vector<double>> saturating_curve(
    double knee_x, double x_max, double step = 1.0) {
  // y = 1 - exp(-x / knee_x): curvature max near knee_x.
  std::vector<double> xs, ys;
  for (double x = 0.0; x <= x_max; x += step) {
    xs.push_back(x);
    ys.push_back(1.0 - std::exp(-x / knee_x));
  }
  return {xs, ys};
}

TEST(Kneedle, FindsKneeOfSaturatingCurve) {
  auto [xs, ys] = saturating_curve(5.0, 40.0);
  const auto knee = kneedle(xs, ys);
  ASSERT_TRUE(knee.has_value());
  // Analytic knee of 1-exp(-x/5) via Kneedle's difference curve is ~5-9.
  EXPECT_GT(knee->x, 3.0);
  EXPECT_LT(knee->x, 12.0);
}

TEST(Kneedle, NoKneeOnStraightLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 30; ++i) {
    xs.push_back(i);
    ys.push_back(2.0 * i + 1.0);
  }
  EXPECT_FALSE(kneedle(xs, ys).has_value());
}

TEST(Kneedle, TooFewPoints) {
  std::vector<double> xs{1, 2, 3, 4};
  std::vector<double> ys{1, 2, 3, 4};
  EXPECT_FALSE(kneedle(xs, ys).has_value());
}

TEST(Kneedle, DegenerateFlatCurve) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6};
  std::vector<double> ys{5, 5, 5, 5, 5, 5};
  EXPECT_FALSE(kneedle(xs, ys).has_value());
}

TEST(Kneedle, RestrictsToRisingSegment) {
  // Rise to a peak at x=10 then fall: the falling tail must not confuse
  // detection, which only looks at the rising segment.
  std::vector<double> xs, ys;
  for (double x = 0; x <= 20; x += 1.0) {
    xs.push_back(x);
    ys.push_back(x <= 10 ? 1.0 - std::exp(-x / 3.0) : 1.0 - 0.05 * (x - 10));
  }
  const auto knee = kneedle(xs, ys);
  ASSERT_TRUE(knee.has_value());
  EXPECT_LE(knee->x, 10.0);
}

TEST(Kneedle, HigherSensitivityIsMoreConservative) {
  auto [xs, ys] = saturating_curve(5.0, 40.0);
  // Inject mild noise.
  Rng rng(3);
  for (double& y : ys) y += rng.normal(0.0, 0.002);
  KneedleOptions aggressive;
  aggressive.sensitivity = 0.5;
  KneedleOptions conservative;
  conservative.sensitivity = 20.0;
  const auto k_aggr = kneedle(xs, ys, aggressive);
  const auto k_cons = kneedle(xs, ys, conservative);
  EXPECT_TRUE(k_aggr.has_value());
  // Very high sensitivity may reject; if it accepts, the knee is no earlier.
  if (k_cons) {
    EXPECT_GE(k_cons->x, k_aggr->x - 1e-9);
  }
}

TEST(Kneedle, ReportsCurveValueAtKnee) {
  auto [xs, ys] = saturating_curve(4.0, 30.0);
  const auto knee = kneedle(xs, ys);
  ASSERT_TRUE(knee.has_value());
  EXPECT_DOUBLE_EQ(knee->y, ys[knee->index]);
  EXPECT_DOUBLE_EQ(knee->x, xs[knee->index]);
}

// Degenerate scatters must be rejected cleanly: nullopt, never a NaN knee,
// never a throw. These are exactly the windows the estimator sees under
// fault injection (empty after dropout, flat after a stall, decreasing
// after overload) before its own sample gates kick in.
TEST(Kneedle, DegenerateEmptyInput) {
  EXPECT_FALSE(kneedle({}, {}).has_value());
}

TEST(Kneedle, DegenerateSinglePoint) {
  std::vector<double> xs{3.0};
  std::vector<double> ys{1.0};
  EXPECT_FALSE(kneedle(xs, ys).has_value());
}

TEST(Kneedle, DegenerateMonotoneDecreasing) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(100.0 - 3.0 * i);
  }
  // The rising segment is the first point alone -> rejected.
  EXPECT_FALSE(kneedle(xs, ys).has_value());
}

TEST(Kneedle, DegenerateAllDuplicateX) {
  std::vector<double> xs{4, 4, 4, 4, 4, 4};
  std::vector<double> ys{1, 2, 3, 4, 5, 6};
  // Zero x-range cannot be normalized; rejected, not divided by.
  EXPECT_FALSE(kneedle(xs, ys).has_value());
}

TEST(Kneedle, DuplicateXWithinCurveProducesFiniteKnee) {
  // Concurrency buckets repeat in real scatters; duplicates inside an
  // otherwise increasing curve must not poison the difference curve.
  std::vector<double> xs{0, 1, 1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(1.0 - std::exp(-x / 2.0));
  const auto knee = kneedle(xs, ys);
  if (knee) {
    EXPECT_FALSE(std::isnan(knee->x));
    EXPECT_FALSE(std::isnan(knee->y));
    EXPECT_LT(knee->index, xs.size());
  }
}

// Property: knee recovery across knee positions and noise seeds.
class KneedleRecovery
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(KneedleRecovery, RecoversSyntheticKnee) {
  const double knee_x = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  auto [xs, ys] = saturating_curve(knee_x, knee_x * 8.0, knee_x / 5.0);
  Rng rng(static_cast<std::uint64_t>(seed));
  for (double& y : ys) y += rng.normal(0.0, 0.004);
  const auto knee = kneedle(xs, ys);
  ASSERT_TRUE(knee.has_value()) << "knee_x=" << knee_x << " seed=" << seed;
  // Kneedle's knee for 1-exp(-x/k) lands within ~[0.7k, 2.2k].
  EXPECT_GT(knee->x, 0.5 * knee_x);
  EXPECT_LT(knee->x, 2.5 * knee_x);
}

INSTANTIATE_TEST_SUITE_P(
    KneesAndSeeds, KneedleRecovery,
    ::testing::Combine(::testing::Values(3.0, 5.0, 10.0, 20.0),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace sora
