#include "common/polyfit.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace sora {

Polynomial::Polynomial(std::vector<double> coeffs, double x_offset,
                       double x_scale)
    : coeffs_(std::move(coeffs)), x_offset_(x_offset), x_scale_(x_scale) {
  if (x_scale_ == 0.0) x_scale_ = 1.0;
}

double Polynomial::operator()(double x) const {
  const double t = (x - x_offset_) / x_scale_;
  // Horner evaluation.
  double y = 0.0;
  for (auto it = coeffs_.rbegin(); it != coeffs_.rend(); ++it) {
    y = y * t + *it;
  }
  return y;
}

namespace {

/// Solve the linear system a*x = b in place with partial pivoting.
/// Returns false if the matrix is (numerically) singular.
bool solve_linear(std::vector<std::vector<double>>& a, std::vector<double>& b) {
  const std::size_t n = a.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    }
    if (std::abs(a[pivot][col]) < 1e-12) return false;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t row = col + 1; row < n; ++row) {
      const double f = a[row][col] / a[col][col];
      if (f == 0.0) continue;
      for (std::size_t k = col; k < n; ++k) a[row][k] -= f * a[col][k];
      b[row] -= f * b[col];
    }
  }
  for (std::size_t col = n; col-- > 0;) {
    double s = b[col];
    for (std::size_t k = col + 1; k < n; ++k) s -= a[col][k] * b[k];
    b[col] = s / a[col][col];
  }
  return true;
}

}  // namespace

PolyFitResult polyfit(std::span<const double> xs, std::span<const double> ys,
                      int degree) {
  PolyFitResult result;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (degree < 0 || n < static_cast<std::size_t>(degree) + 1) return result;

  const auto [min_it, max_it] = std::minmax_element(xs.begin(), xs.end());
  const double x_offset = *min_it;
  const double x_scale = (*max_it - *min_it) > 0 ? (*max_it - *min_it) : 1.0;

  const std::size_t m = static_cast<std::size_t>(degree) + 1;
  // Normal equations: (V^T V) c = V^T y with V the normalized Vandermonde.
  std::vector<std::vector<double>> ata(m, std::vector<double>(m, 0.0));
  std::vector<double> aty(m, 0.0);
  std::vector<double> powers(2 * m - 1, 0.0);

  for (std::size_t i = 0; i < n; ++i) {
    const double t = (xs[i] - x_offset) / x_scale;
    double p = 1.0;
    std::vector<double> tp(m);
    for (std::size_t j = 0; j < m; ++j) {
      tp[j] = p;
      p *= t;
    }
    for (std::size_t j = 0; j < m; ++j) {
      aty[j] += tp[j] * ys[i];
      for (std::size_t k = 0; k < m; ++k) ata[j][k] += tp[j] * tp[k];
    }
  }
  (void)powers;

  if (!solve_linear(ata, aty)) return result;

  result.poly = Polynomial(std::move(aty), x_offset, x_scale);
  double mean_y = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean_y += ys[i];
  mean_y /= static_cast<double>(n);
  double tss = 0.0, rss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double fit = result.poly(xs[i]);
    rss += (ys[i] - fit) * (ys[i] - fit);
    tss += (ys[i] - mean_y) * (ys[i] - mean_y);
  }
  result.rss = rss;
  result.r_squared = tss > 0.0 ? 1.0 - rss / tss : 1.0;
  result.ok = true;
  return result;
}

}  // namespace sora
