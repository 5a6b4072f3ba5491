// The Scatter-Concurrency-Goodput (SCG) model — the paper's core
// contribution (Section 3) — and its latency-agnostic ancestor, the
// Scatter-Concurrency-Throughput (SCT) model used by ConScale (the
// baseline of Section 5.2).
//
// Pipeline (Estimation Phase):
//   1. aggregate the scatter of <concurrency Q_n, goodput GP_n> sample
//      points into per-Q mean goodput (the "main sequence curve"),
//   2. fit a smoothing polynomial, tuning the degree incrementally from low
//      to high until the fit matches the profiling data (Section 3.3),
//   3. run Kneedle on the fitted curve; the knee is the optimal concurrency.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/polyfit.h"
#include "core/kneedle.h"
#include "metrics/scatter_sampler.h"

namespace sora {

/// Which metric forms the y-axis of the scatter.
enum class ModelKind {
  kScatterConcurrencyGoodput,    ///< SCG (Sora): latency-filtered
  kScatterConcurrencyThroughput, ///< SCT (ConScale): latency-agnostic
};

const char* to_string(ModelKind kind);

struct ScgOptions {
  ModelKind kind = ModelKind::kScatterConcurrencyGoodput;

  /// Incremental polynomial-degree tuning range (paper: 5-8 typically fit).
  int min_degree = 3;
  int max_degree = 10;

  KneedleOptions kneedle;
};

/// One aggregated point of the main sequence curve.
struct CurvePoint {
  double concurrency = 0.0;
  double value = 0.0;  ///< mean goodput (SCG) or throughput (SCT), req/s
  std::size_t samples = 0;
};

struct ConcurrencyEstimate {
  bool valid = false;
  /// Recommended concurrency setting (knee, rounded to an integer >= 1).
  int recommended = 0;
  /// Raw knee location and value.
  double knee_concurrency = 0.0;
  double knee_value = 0.0;
  /// Peak of the fitted curve (saturation point) — the SCT-style optimum.
  double peak_concurrency = 0.0;
  double peak_value = 0.0;
  /// Fit diagnostics.
  int degree_used = 0;
  double r_squared = 0.0;
  std::size_t points_used = 0;
  std::string failure;  ///< non-empty when !valid
};

class ScgModel {
 public:
  explicit ScgModel(ScgOptions options = {});

  /// Estimate the optimal concurrency from raw scatter samples.
  ConcurrencyEstimate estimate(std::span<const SamplePoint> samples) const;

  /// Aggregate raw samples into the per-Q main sequence curve (exposed for
  /// tests and the figure benches).
  std::vector<CurvePoint> aggregate(std::span<const SamplePoint> samples) const;

 private:
  double sample_value(const SamplePoint& p) const;

  ScgOptions options_;
};

}  // namespace sora
