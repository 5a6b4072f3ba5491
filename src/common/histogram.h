// Fixed-grid histogram.
//
// LinearHistogram buckets values on a fixed grid — used to render the
// response-time distribution plots (Figure 4). Tail percentiles come from
// the mergeable quantile sketch (obs/quantile_sketch.h) instead.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"

namespace sora {

/// Sentinel for SimTime-valued percentile queries over no samples (the
/// SimTime counterpart of common::kNoSample; durations are never negative,
/// so -1 is unambiguous).
inline constexpr SimTime kNoSampleTime = -1;

/// Fixed-width histogram over [0, bucket_width * num_buckets); values beyond
/// the last bucket are clamped into it.
class LinearHistogram {
 public:
  LinearHistogram(double bucket_width, std::size_t num_buckets);

  void record(double value);
  /// Record `n` occurrences of `value` at once (used when rebuilding a
  /// distribution from pre-aggregated counts, e.g. a quantile sketch).
  void record_n(double value, std::uint64_t n);
  void reset();

  std::size_t num_buckets() const { return counts_.size(); }
  double bucket_width() const { return width_; }
  std::uint64_t bucket_count(std::size_t i) const { return counts_[i]; }
  /// Midpoint of bucket i.
  double bucket_center(std::size_t i) const;
  std::uint64_t total() const { return total_; }

 private:
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace sora
