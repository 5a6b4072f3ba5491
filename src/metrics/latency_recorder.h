// End-to-end latency and goodput recording.
//
// The recorder is wired as the workload generator's completion observer. It
// maintains (a) a mergeable quantile sketch for tail percentiles (Table 2)
// in memory independent of the sample count, plus a running sum for the
// mean, (b) a per-bucket timeline of mean/max response time, throughput and
// goodput for the figure-style timeline plots (Figures 10-12), and (c) a
// linear-grid view of the response-time distribution derived from the
// sketch (Figure 4).
#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/time.h"
#include "obs/quantile_sketch.h"
#include "sim/simulator.h"

namespace sora {

/// One timeline bucket of aggregate client-side metrics.
struct TimelineBucket {
  SimTime start = 0;
  std::uint64_t completed = 0;
  std::uint64_t good = 0;  ///< rt <= sla threshold
  std::uint64_t shed = 0;  ///< rejected by admission control
  double sum_rt = 0.0;     ///< microseconds
  SimTime max_rt = 0;

  double mean_rt_ms() const {
    return completed ? to_msec(static_cast<SimTime>(sum_rt)) /
                           static_cast<double>(completed)
                     : 0.0;
  }
  double max_rt_ms() const { return to_msec(max_rt); }
};

class LatencyRecorder {
 public:
  /// `sla` is the end-to-end goodput threshold (e.g. 400 ms in Figure 10);
  /// `bucket` is the timeline resolution.
  LatencyRecorder(Simulator& sim, SimTime sla, SimTime bucket = sec(1));

  /// Record one completed request. `ok == false` means admission control
  /// shed it: the rejection counts against goodput (it is not a served
  /// response) but stays out of the latency sketch and mean, so
  /// percentiles describe admitted requests only.
  void record(SimTime rt, bool ok = true);

  // -- summary ----------------------------------------------------------------

  /// Served (admitted and completed) requests.
  std::uint64_t count() const { return sketch_.count(); }
  /// Requests rejected by admission control.
  std::uint64_t shed() const { return shed_; }
  /// p-th response-time percentile in milliseconds, answered by the quantile
  /// sketch (relative error bounded by the sketch's accuracy, default 1%).
  /// Returns kNoSample when nothing has been recorded.
  double percentile_ms(double p) const;
  /// Mean served response time in milliseconds (0 when nothing was served).
  /// The microsecond mean truncates to whole microseconds first.
  double mean_ms() const;

  /// Goodput in requests/second over the whole recording window.
  double average_goodput() const;
  /// Fraction of requests within the SLA.
  double good_fraction() const;

  SimTime sla() const { return sla_; }

  // -- timeline ---------------------------------------------------------------

  const std::vector<TimelineBucket>& timeline() const { return timeline_; }
  SimTime bucket_width() const { return bucket_; }

  /// Response-time distribution on a linear ms grid (for Figure 4), rebuilt
  /// from the sketch (counts are exact up to the sketch's bucket
  /// granularity).
  LinearHistogram distribution_ms(double bucket_ms, std::size_t buckets) const;

  /// The mergeable response-time sketch (microsecond unit), for SLO
  /// reporting and cross-run aggregation.
  const obs::QuantileSketch& sketch() const { return sketch_; }

 private:
  TimelineBucket& bucket_for(SimTime t);

  Simulator& sim_;
  SimTime sla_;
  SimTime bucket_;
  SimTime start_;
  std::uint64_t shed_ = 0;
  /// Sum of served response times in microseconds, negatives clamped to 0,
  /// accumulated in record order.
  double sum_rt_ = 0.0;
  obs::QuantileSketch sketch_;
  std::vector<TimelineBucket> timeline_;
};

}  // namespace sora
