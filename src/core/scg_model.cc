#include "core/scg_model.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/profiler.h"

namespace sora {

/// Minimum number of raw sample points required to attempt an estimate.
constexpr std::size_t kMinPoints = 50;
/// Minimum distinct concurrency bins (range of observed Q) required.
constexpr std::size_t kMinBins = 6;
/// Accept the first degree whose fit reaches this R^2 and yields a knee.
constexpr double kR2Accept = 0.65;
/// Dense evaluation grid for locating the fitted curve's peak.
constexpr std::size_t kGridPoints = 200;
/// A knee only counts when its goodput is at least this fraction of the
/// fitted curve's peak: a "knee" far below saturation means the observed
/// concurrency range has not reached the plateau yet (the allocation is
/// capping concurrency), so the right move is exploration, not shrinking.
constexpr double kMinKneeFraction = 0.8;
/// Discard sample buckets with throughput below this fraction of the
/// maximum observed throughput (idle buckets carry no signal).
constexpr double kMinLoadFraction = 0.02;
/// Right-censor buckets whose concurrency is pinned at the pool capacity
/// (>= this fraction of it): their goodput collapse reflects queueing
/// behind the current cap, not the service's behaviour at that
/// concurrency. Without censoring, a conservative allocation manufactures
/// a false knee at the cap (Section 3.2 discusses exactly this:
/// "too-conservative concurrency settings may affect knee point
/// detection ... we gradually increase the allocation").
constexpr double kCapacityCensorFraction = 0.92;

const char* to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kScatterConcurrencyGoodput:
      return "SCG";
    case ModelKind::kScatterConcurrencyThroughput:
      return "SCT";
  }
  return "?";
}

ScgModel::ScgModel(ScgOptions options) : options_(options) {}

double ScgModel::sample_value(const SamplePoint& p) const {
  return options_.kind == ModelKind::kScatterConcurrencyGoodput ? p.goodput
                                                                : p.throughput;
}

std::vector<CurvePoint> ScgModel::aggregate(
    std::span<const SamplePoint> samples) const {
  SORA_PROFILE_STAGE(obs::Stage::kScgAggregate);
  // Filter out idle buckets, then bin by rounded concurrency and average
  // ("for a specific server concurrency Q_n we calculate the average
  // goodput GP_n", Section 3.2).
  double max_tp = 0.0;
  for (const SamplePoint& p : samples) max_tp = std::max(max_tp, p.throughput);
  const double tp_floor = max_tp * kMinLoadFraction;

  std::map<int, std::pair<double, std::size_t>> bins;  // Q -> (sum, count)
  for (const SamplePoint& p : samples) {
    if (p.throughput < tp_floor) continue;
    if (p.capacity > 0.0 &&
        p.concurrency >= kCapacityCensorFraction * p.capacity) {
      continue;  // right-censored: pinned at the current allocation
    }
    const int q = static_cast<int>(std::lround(p.concurrency));
    if (q < 1) continue;
    auto& [sum, count] = bins[q];
    sum += sample_value(p);
    ++count;
  }

  std::vector<CurvePoint> curve;
  curve.reserve(bins.size());
  for (const auto& [q, agg] : bins) {
    curve.push_back(CurvePoint{static_cast<double>(q),
                               agg.first / static_cast<double>(agg.second),
                               agg.second});
  }
  return curve;
}

ConcurrencyEstimate ScgModel::estimate(
    std::span<const SamplePoint> samples) const {
  SORA_PROFILE_STAGE(obs::Stage::kScgEstimate);
  ConcurrencyEstimate est;
  est.points_used = samples.size();

  if (samples.size() < kMinPoints) {
    est.failure = "insufficient samples";
    return est;
  }
  const std::vector<CurvePoint> curve = aggregate(samples);
  if (curve.size() < kMinBins) {
    est.failure = "insufficient concurrency range";
    return est;
  }

  std::vector<double> xs, ys;
  xs.reserve(curve.size());
  ys.reserve(curve.size());
  for (const CurvePoint& p : curve) {
    xs.push_back(p.concurrency);
    ys.push_back(p.value);
  }

  // Incremental degree tuning: lowest degree whose fit both matches the
  // data (R^2) and produces a confirmed knee wins. Track the best fallback
  // in case no degree satisfies both.
  std::optional<KneeResult> best_knee;
  PolyFitResult best_fit;
  int best_degree = 0;

  // The knee is detected on the *smoothed* curve evaluated at the observed
  // concurrency bins: Kneedle's sensitivity threshold is calibrated to the
  // data spacing, so evaluating on an arbitrarily dense grid would make the
  // threshold vanish and admit noise bumps as knees.
  const int max_degree =
      std::min<int>(options_.max_degree, static_cast<int>(xs.size()) - 2);
  for (int degree = options_.min_degree; degree <= max_degree; ++degree) {
    const PolyFitResult fit = [&] {
      SORA_PROFILE_STAGE(obs::Stage::kScgPolyfit);
      return polyfit(xs, ys, degree);
    }();
    if (!fit.ok) continue;

    std::vector<double> smooth(xs.size());
    double fit_peak = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      smooth[i] = (fit.poly)(xs[i]);
      fit_peak = std::max(fit_peak, smooth[i]);
    }
    auto knee = [&] {
      SORA_PROFILE_STAGE(obs::Stage::kScgKneedle);
      return kneedle(xs, smooth, options_.kneedle);
    }();
    // Reject knees below the saturation plateau (see kMinKneeFraction).
    if (knee && knee->y < kMinKneeFraction * fit_peak) {
      knee.reset();
    }

    const bool better_fit = !best_fit.ok || fit.r_squared > best_fit.r_squared;
    if (better_fit && (knee || !best_knee)) {
      best_fit = fit;
      best_degree = degree;
      if (knee) best_knee = knee;
    }
    if (knee && fit.r_squared >= kR2Accept) {
      best_fit = fit;
      best_degree = degree;
      best_knee = knee;
      break;  // minimum adequate degree found
    }
  }

  if (!best_fit.ok) {
    est.failure = "polynomial fit failed";
    return est;
  }

  // Peak of the fitted curve over the observed range.
  {
    const double lo = xs.front(), hi = xs.back();
    double peak_x = lo, peak_y = (best_fit.poly)(lo);
    for (std::size_t i = 1; i < kGridPoints; ++i) {
      const double x = lo + (hi - lo) * static_cast<double>(i) /
                                static_cast<double>(kGridPoints - 1);
      const double y = (best_fit.poly)(x);
      if (y > peak_y) {
        peak_y = y;
        peak_x = x;
      }
    }
    est.peak_concurrency = peak_x;
    est.peak_value = peak_y;
  }

  est.degree_used = best_degree;
  est.r_squared = best_fit.r_squared;

  if (!best_knee) {
    // Fallback: a curve that rises (near-)linearly to an interior maximum
    // and clearly declines afterwards has no curvature knee, but its peak
    // is the optimal concurrency — beyond it goodput is lost outright.
    const double x_max = xs.back();
    const double tail = (best_fit.poly)(x_max);
    const bool interior_peak = est.peak_concurrency < 0.9 * x_max;
    const bool declines = tail < kMinKneeFraction * est.peak_value;
    if (best_fit.ok && interior_peak && declines &&
        best_fit.r_squared >= kR2Accept) {
      est.valid = true;
      est.knee_concurrency = est.peak_concurrency;
      est.knee_value = est.peak_value;
      est.recommended =
          std::max(1, static_cast<int>(std::lround(est.peak_concurrency)));
      return est;
    }
    est.failure = "no knee detected";
    return est;
  }

  est.valid = true;
  est.knee_concurrency = best_knee->x;
  est.knee_value = best_knee->y;
  est.recommended = std::max(1, static_cast<int>(std::lround(best_knee->x)));
  return est;
}

}  // namespace sora
