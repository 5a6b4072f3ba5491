// Tests for least-squares polynomial fitting.
#include "common/polyfit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace sora {
namespace {

TEST(Polyfit, ExactLine) {
  std::vector<double> xs{0, 1, 2, 3, 4};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.0 * x + 2.0);
  const auto fit = polyfit(xs, ys, 1);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
  for (double x : {0.5, 1.5, 3.7}) {
    EXPECT_NEAR(fit.poly(x), 3.0 * x + 2.0, 1e-8);
  }
}

TEST(Polyfit, ExactCubic) {
  std::vector<double> xs, ys;
  for (int i = 0; i <= 10; ++i) {
    const double x = static_cast<double>(i);
    xs.push_back(x);
    ys.push_back(0.5 * x * x * x - 2.0 * x * x + x - 7.0);
  }
  const auto fit = polyfit(xs, ys, 3);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
  EXPECT_NEAR(fit.poly(2.5), 0.5 * 15.625 - 2.0 * 6.25 + 2.5 - 7.0, 1e-6);
}

TEST(Polyfit, UnderdeterminedFails) {
  std::vector<double> xs{1, 2};
  std::vector<double> ys{1, 2};
  EXPECT_FALSE(polyfit(xs, ys, 3).ok);
}

TEST(Polyfit, NegativeDegreeFails) {
  std::vector<double> xs{1, 2, 3};
  std::vector<double> ys{1, 2, 3};
  EXPECT_FALSE(polyfit(xs, ys, -1).ok);
}

TEST(Polyfit, SingularWhenAllXEqual) {
  std::vector<double> xs{2, 2, 2, 2};
  std::vector<double> ys{1, 2, 3, 4};
  EXPECT_FALSE(polyfit(xs, ys, 1).ok);
}

TEST(Polyfit, NoisyFitReasonableR2) {
  Rng rng(3);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    const double x = static_cast<double>(i) / 10.0;
    xs.push_back(x);
    ys.push_back(5.0 * x - 0.1 * x * x + rng.normal(0.0, 1.0));
  }
  const auto fit = polyfit(xs, ys, 2);
  ASSERT_TRUE(fit.ok);
  EXPECT_GT(fit.r_squared, 0.95);
}

TEST(Polyfit, HighDegreeOnWideRangeStaysStable) {
  // Normalization keeps the Vandermonde conditioned on large x ranges.
  std::vector<double> xs, ys;
  for (int i = 0; i <= 40; ++i) {
    const double x = 1000.0 + 50.0 * i;
    xs.push_back(x);
    ys.push_back(std::sin(static_cast<double>(i) / 8.0));
  }
  const auto fit = polyfit(xs, ys, 8);
  ASSERT_TRUE(fit.ok);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(Polyfit, ConstantData) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  std::vector<double> ys{7, 7, 7, 7, 7};
  const auto fit = polyfit(xs, ys, 2);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.poly(3.0), 7.0, 1e-9);
  // TSS == 0 -> r_squared defined as 1.
  EXPECT_DOUBLE_EQ(fit.r_squared, 1.0);
}

TEST(Polynomial, DefaultIsZero) {
  Polynomial p;
  EXPECT_DOUBLE_EQ(p(3.0), 0.0);
  EXPECT_EQ(p.degree(), -1);
}

// Degenerate scatters: the fit must fail closed (ok == false, poly
// evaluates to 0) or produce finite values — never NaN, never a throw.
TEST(Polyfit, DegenerateEmptyInput) {
  const auto fit = polyfit({}, {}, 2);
  EXPECT_FALSE(fit.ok);
  // The documented fallback: a default Polynomial is identically zero.
  EXPECT_DOUBLE_EQ(fit.poly(1.0), 0.0);
}

TEST(Polyfit, DegenerateSinglePoint) {
  std::vector<double> xs{2.0};
  std::vector<double> ys{5.0};
  EXPECT_FALSE(polyfit(xs, ys, 2).ok);
  // Degree 0 on one point is determined: the constant.
  const auto fit = polyfit(xs, ys, 0);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.poly(123.0), 5.0, 1e-12);
}

TEST(Polyfit, DegenerateMonotoneDecreasingStaysFinite) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 30; ++i) {
    xs.push_back(i);
    ys.push_back(50.0 - 1.5 * i);
  }
  const auto fit = polyfit(xs, ys, 5);
  ASSERT_TRUE(fit.ok);
  for (double x : xs) {
    EXPECT_TRUE(std::isfinite(fit.poly(x)));
  }
  EXPECT_TRUE(std::isfinite(fit.r_squared));
}

TEST(Polyfit, DegenerateDuplicateXMixedInIsFine) {
  // Repeated abscissae (same concurrency bucket sampled twice) keep the
  // normal equations well-posed as long as enough distinct x remain.
  std::vector<double> xs{1, 1, 2, 2, 3, 3, 4, 4, 5, 5};
  std::vector<double> ys{2, 2.2, 4, 3.8, 6, 6.1, 8, 7.9, 10, 10.2};
  const auto fit = polyfit(xs, ys, 1);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR((fit.poly(4.0) - fit.poly(2.0)) / 2.0, 2.0, 0.1);
  EXPECT_TRUE(std::isfinite(fit.rss));
}

TEST(Polyfit, DegreeExceedsDistinctXFailsClosed) {
  // 2 distinct x values cannot support a cubic: the normal equations go
  // singular and the fit must report !ok instead of returning NaN coeffs.
  std::vector<double> xs{1, 1, 1, 2, 2, 2};
  std::vector<double> ys{1, 1, 1, 2, 2, 2};
  const auto fit = polyfit(xs, ys, 3);
  EXPECT_FALSE(fit.ok);
  EXPECT_DOUBLE_EQ(fit.poly(1.5), 0.0);
}

// Property: fitting a polynomial of degree d with degree >= d recovers it.
class PolyRecovery : public ::testing::TestWithParam<int> {};

TEST_P(PolyRecovery, RecoversExactPolynomial) {
  const int degree = GetParam();
  Rng rng(static_cast<std::uint64_t>(degree) + 100);
  std::vector<double> coeffs;
  for (int i = 0; i <= degree; ++i) coeffs.push_back(rng.uniform(-2.0, 2.0));
  std::vector<double> xs, ys;
  for (int i = 0; i <= degree * 4 + 8; ++i) {
    const double x = static_cast<double>(i) / 4.0;
    double y = 0.0, p = 1.0;
    for (double c : coeffs) {
      y += c * p;
      p *= x;
    }
    xs.push_back(x);
    ys.push_back(y);
  }
  const auto fit = polyfit(xs, ys, degree);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-6);
  // Normal equations square the condition number, so allow a modest
  // tolerance at the higher degrees (the SCG smoothing use-case cares about
  // curve shape, not exact interpolation).
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(fit.poly(xs[i]), ys[i], 5e-3 * (1.0 + std::abs(ys[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, PolyRecovery, ::testing::Range(1, 9));

}  // namespace
}  // namespace sora
