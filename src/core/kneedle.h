// Kneedle knee-point detection (Satopaa, Albrecht, Irwin, Raghavan:
// "Finding a 'Kneedle' in a Haystack", ICDCS workshops 2011) — the detector
// the SCG model uses to find the optimal concurrency on the main sequence
// curve (Section 3.3).
//
// Given a curve y(x) that rises and flattens (concave increasing), the knee
// is the point of maximum curvature, approximated as the maximum of the
// difference between the normalized curve and the diagonal.
#pragma once

#include <optional>
#include <span>
#include <vector>

namespace sora {

struct KneedleOptions {
  /// Sensitivity S of the original algorithm: how far a local maximum of
  /// the difference curve must stand out to count as a knee. Smaller =
  /// more aggressive detection.
  double sensitivity = 1.0;
};

struct KneeResult {
  double x = 0.0;  ///< knee abscissa (same units as input xs)
  double y = 0.0;  ///< curve value at the knee
  std::size_t index = 0;  ///< index into the (possibly truncated) input
};

/// Detect the knee of (xs, ys). xs must be strictly increasing. Returns
/// nullopt when the input is too small (< 5 points) or no local maximum of
/// the difference curve clears the sensitivity threshold.
std::optional<KneeResult> kneedle(std::span<const double> xs,
                                  std::span<const double> ys,
                                  const KneedleOptions& options = {});

}  // namespace sora
