// Fine-grained concurrency / goodput / throughput sampling.
//
// Implements the Metrics Collection Phase of the SCG model (Section 3.2):
// every `interval` (default 100 ms, Table 1 sweeps it) one SamplePoint is
// emitted pairing the exact time-averaged concurrency of a knob's pools
// with the goodput (completions within the current response-time threshold)
// and throughput measured at the knob's completion service over the same
// bucket. A bounded ring of recent points forms the scatter graph that the
// Estimation Phase consumes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "metrics/knob.h"
#include "sim/simulator.h"
#include "trace/tracer.h"

namespace sora {

struct SamplePoint {
  SimTime at = 0;            ///< end of the bucket
  double concurrency = 0.0;  ///< time-averaged slots in use
  double goodput = 0.0;      ///< req/s within threshold
  double throughput = 0.0;   ///< req/s total
  double capacity = 0.0;     ///< aggregate pool capacity at sample time;
                             ///< buckets pinned at capacity are
                             ///< right-censored by the model (their latency
                             ///< collapse is self-inflicted queueing, not
                             ///< evidence about higher concurrency)
};

class ScatterSampler {
 public:
  /// `rt_threshold` is the service-level response-time threshold (deadline)
  /// used for goodput; adjustable at runtime via set_rt_threshold (the RT
  /// Threshold Propagation Phase updates it).
  ScatterSampler(Simulator& sim, Tracer& tracer, ResourceKnob knob,
                 SimTime interval, SimTime rt_threshold,
                 std::size_t max_points = 4096);
  ~ScatterSampler();

  ScatterSampler(const ScatterSampler&) = delete;
  ScatterSampler& operator=(const ScatterSampler&) = delete;

  void start();
  void stop();

  void set_rt_threshold(SimTime t) { rt_threshold_ = t; }
  SimTime rt_threshold() const { return rt_threshold_; }
  SimTime interval() const { return interval_; }
  const ResourceKnob& knob() const { return knob_; }

  /// Fault-injection hook: when set and returning false for a finished
  /// bucket, that SamplePoint is discarded instead of entering the scatter
  /// (models a lost metrics report). Accumulators still reset, so the next
  /// bucket is unaffected. Pass nullptr to clear.
  using BucketFilter = std::function<bool(const SamplePoint&)>;
  void set_bucket_filter(BucketFilter f) { bucket_filter_ = std::move(f); }

  /// All retained points, oldest first.
  std::vector<SamplePoint> points() const;
  /// Points whose bucket ended at or after `from`.
  std::vector<SamplePoint> points_since(SimTime from) const;
  std::size_t size() const { return points_.size(); }
  void clear() { points_.clear(); }

 private:
  void on_span(const Span& span);
  void on_tick();

  Simulator& sim_;
  ResourceKnob knob_;
  ServiceId completion_service_;
  SimTime interval_;
  SimTime rt_threshold_;
  std::size_t max_points_;

  bool running_ = false;
  EventHandle tick_;
  BucketFilter bucket_filter_;

  // current bucket accumulators
  SimTime bucket_start_ = 0;
  double usage_snapshot_ = 0.0;
  std::uint64_t bucket_good_ = 0;
  std::uint64_t bucket_all_ = 0;

  std::deque<SamplePoint> points_;
};

}  // namespace sora
