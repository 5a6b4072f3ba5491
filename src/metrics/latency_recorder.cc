#include "metrics/latency_recorder.h"

#include <algorithm>

#include "common/stats.h"

namespace sora {

LatencyRecorder::LatencyRecorder(Simulator& sim, SimTime sla, SimTime bucket)
    : sim_(sim), sla_(sla), bucket_(bucket), start_(sim.now()) {}

TimelineBucket& LatencyRecorder::bucket_for(SimTime t) {
  const auto idx = static_cast<std::size_t>(
      std::max<SimTime>(0, t - start_) / bucket_);
  while (timeline_.size() <= idx) {
    TimelineBucket b;
    b.start = start_ + static_cast<SimTime>(timeline_.size()) * bucket_;
    timeline_.push_back(b);
  }
  return timeline_[idx];
}

void LatencyRecorder::record(SimTime rt, bool ok) {
  TimelineBucket& b = bucket_for(sim_.now());
  if (!ok) {
    ++shed_;
    ++b.shed;
    return;
  }
  sum_rt_ += static_cast<double>(std::max<SimTime>(rt, 0));
  sketch_.record(static_cast<double>(rt));
  ++b.completed;
  if (rt <= sla_) ++b.good;
  b.sum_rt += static_cast<double>(rt);
  b.max_rt = std::max(b.max_rt, rt);
}

double LatencyRecorder::percentile_ms(double p) const {
  return sketch_.percentile(p) / 1e3;  // kNoSample propagates through /
}

double LatencyRecorder::mean_ms() const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  return to_msec(static_cast<SimTime>(sum_rt_ / static_cast<double>(n)));
}

double LatencyRecorder::average_goodput() const {
  const SimTime elapsed = sim_.now() - start_;
  if (elapsed <= 0) return 0.0;
  std::uint64_t good = 0;
  for (const auto& b : timeline_) good += b.good;
  return static_cast<double>(good) / to_sec(elapsed);
}

double LatencyRecorder::good_fraction() const {
  // Shed requests count against the denominator: a rejection is not a
  // within-SLA response, even though it never entered the latency sketch.
  const std::uint64_t total = count() + shed_;
  if (total == 0) return 0.0;
  std::uint64_t good = 0;
  for (const auto& b : timeline_) good += b.good;
  return static_cast<double>(good) / static_cast<double>(total);
}

LinearHistogram LatencyRecorder::distribution_ms(double bucket_ms,
                                                 std::size_t buckets) const {
  // Rebuild the linear view from the sketch's cumulative counts: each grid
  // cell receives the samples whose sketch representative falls inside it.
  LinearHistogram h(bucket_ms, buckets);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i + 1 < buckets; ++i) {
    const double hi_us = bucket_ms * static_cast<double>(i + 1) * 1e3;
    const std::uint64_t cum = sketch_.count_at_or_below(hi_us);
    h.record_n(h.bucket_center(i), cum - below);
    below = cum;
  }
  h.record_n(h.bucket_center(buckets - 1), sketch_.count() - below);
  return h;
}

}  // namespace sora
