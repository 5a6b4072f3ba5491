#include "core/kneedle.h"

#include <algorithm>
#include <cmath>

namespace sora {

std::optional<KneeResult> kneedle(std::span<const double> xs,
                                  std::span<const double> ys,
                                  const KneedleOptions& options) {
  std::size_t n = std::min(xs.size(), ys.size());
  if (n < 5) return std::nullopt;

  // Truncate to the rising segment [start, argmax(y)]: goodput curves fall
  // after saturation and Kneedle's concave-increasing form expects a rising
  // curve.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (ys[i] > ys[peak]) peak = i;
  }
  n = peak + 1;
  if (n < 5) return std::nullopt;

  const double x_min = xs[0];
  const double x_max = xs[n - 1];
  double y_min = ys[0], y_max = ys[0];
  for (std::size_t i = 1; i < n; ++i) {
    y_min = std::min(y_min, ys[i]);
    y_max = std::max(y_max, ys[i]);
  }
  if (x_max <= x_min || y_max <= y_min) return std::nullopt;

  // Normalize to the unit square and build the difference curve
  // d_i = y_n(i) - x_n(i) (concave increasing form).
  std::vector<double> xn(n), dn(n);
  for (std::size_t i = 0; i < n; ++i) {
    xn[i] = (xs[i] - x_min) / (x_max - x_min);
    const double yni = (ys[i] - y_min) / (y_max - y_min);
    dn[i] = yni - xn[i];
  }

  // Mean spacing of normalized x, used in the sensitivity threshold.
  const double mean_dx = 1.0 / static_cast<double>(n - 1);

  // Scan for local maxima of the difference curve; a local max is a knee if
  // d falls below (d_lmx - S * mean_dx) before the next local max (or end).
  std::optional<KneeResult> best;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const bool local_max = dn[i] >= dn[i - 1] && dn[i] >= dn[i + 1];
    if (!local_max) continue;
    const double threshold = dn[i] - options.sensitivity * mean_dx;
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool next_is_lmx =
          j + 1 < n && dn[j] >= dn[j - 1] && dn[j] >= dn[j + 1] && dn[j] > dn[i];
      if (next_is_lmx) break;  // superseded by a higher local max
      if (dn[j] < threshold) {
        // Confirmed knee.
        if (!best) {
          best = KneeResult{xs[i], ys[i], i};
        }
        break;
      }
    }
    if (best) break;  // Kneedle reports the first confirmed knee
  }
  return best;
}

}  // namespace sora
