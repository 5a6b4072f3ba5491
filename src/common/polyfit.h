// Least-squares polynomial fitting.
//
// The SCG model (Section 3.3 of the paper) fits a smoothing polynomial to
// the concurrency-goodput scatter before running the Kneedle detector. We
// normalize x into [0,1] before solving the normal equations so that the
// Vandermonde system stays well-conditioned up to the degrees the paper uses
// (5-8, capped at ~12 here).
#pragma once

#include <span>
#include <vector>

namespace sora {

/// A fitted polynomial y = sum_i coeffs[i] * t^i where t = (x - x_offset) /
/// x_scale is the normalized abscissa.
class Polynomial {
 public:
  Polynomial() = default;
  Polynomial(std::vector<double> coeffs, double x_offset, double x_scale);

  double operator()(double x) const;

  int degree() const { return static_cast<int>(coeffs_.size()) - 1; }

 private:
  std::vector<double> coeffs_;
  double x_offset_ = 0.0;
  double x_scale_ = 1.0;
};

struct PolyFitResult {
  Polynomial poly;
  double rss = 0.0;        ///< Residual sum of squares.
  double r_squared = 0.0;  ///< Coefficient of determination (1 = perfect).
  bool ok = false;         ///< False if the system was singular/underdetermined.
};

/// Fit a degree-`degree` polynomial to (xs[i], ys[i]) by least squares.
/// Requires xs.size() == ys.size() and at least degree+1 distinct points.
PolyFitResult polyfit(std::span<const double> xs, std::span<const double> ys,
                      int degree);

}  // namespace sora
