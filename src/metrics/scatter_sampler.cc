#include "metrics/scatter_sampler.h"

namespace sora {

ScatterSampler::ScatterSampler(Simulator& sim, Tracer& tracer,
                               ResourceKnob knob, SimTime interval,
                               SimTime rt_threshold, std::size_t max_points)
    : sim_(sim),
      knob_(knob),
      completion_service_(knob.completion_service()),
      interval_(interval),
      rt_threshold_(rt_threshold),
      max_points_(max_points) {
  // A knob without a completion service never sees a completion.
  if (completion_service_.valid()) {
    tracer.add_span_listener(completion_service_,
                             [this](const Span& s) { on_span(s); });
  }
}

ScatterSampler::~ScatterSampler() { stop(); }

void ScatterSampler::start() {
  if (running_) return;
  running_ = true;
  bucket_start_ = sim_.now();
  usage_snapshot_ = knob_.usage_integral();
  bucket_good_ = 0;
  bucket_all_ = 0;
  tick_ = sim_.schedule_periodic(interval_, [this] { on_tick(); });
}

void ScatterSampler::stop() {
  running_ = false;
  tick_.cancel();
}

void ScatterSampler::on_span(const Span& span) {
  if (!running_) return;
  // Aborted visits (crash drops) are error responses, not completions:
  // they must not inflate goodput with their artificially short durations.
  if (span.failed) return;
  ++bucket_all_;
  if (span.duration() <= rt_threshold_) ++bucket_good_;
}

void ScatterSampler::on_tick() {
  const SimTime now = sim_.now();
  const SimTime dt = now - bucket_start_;
  if (dt <= 0) return;
  const double usage_now = knob_.usage_integral();
  const double secs = to_sec(dt);

  SamplePoint p;
  p.at = now;
  p.concurrency = (usage_now - usage_snapshot_) / static_cast<double>(dt);
  p.goodput = static_cast<double>(bucket_good_) / secs;
  p.throughput = static_cast<double>(bucket_all_) / secs;
  p.capacity = static_cast<double>(knob_.total_capacity());
  if (!bucket_filter_ || bucket_filter_(p)) {
    points_.push_back(p);
    while (points_.size() > max_points_) points_.pop_front();
  }

  bucket_start_ = now;
  usage_snapshot_ = usage_now;
  bucket_good_ = 0;
  bucket_all_ = 0;
}

std::vector<SamplePoint> ScatterSampler::points() const {
  return std::vector<SamplePoint>(points_.begin(), points_.end());
}

std::vector<SamplePoint> ScatterSampler::points_since(SimTime from) const {
  std::vector<SamplePoint> out;
  for (const SamplePoint& p : points_) {
    if (p.at >= from) out.push_back(p);
  }
  return out;
}

}  // namespace sora
