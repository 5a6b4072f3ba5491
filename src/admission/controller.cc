#include "admission/controller.h"

#include <algorithm>
#include <cmath>

namespace sora {

/// AIMD multiplicative backoff applied when a departure signals congestion
/// (error, or RTT above aimd_latency_threshold).
constexpr double kAimdBackoff = 0.9;
/// AIMD additive increase credited per uncongested departure (scaled by
/// 1/limit, the classic one-per-window rule).
constexpr double kAimdIncrease = 1.0;
/// Gradient policy: EWMA smoothing factor for the long-term RTT average
/// (per departure).
constexpr double kGradientSmoothing = 0.1;
/// Gradient policy: allowed long-RTT inflation over min-RTT before the
/// limit shrinks.
constexpr double kGradientTolerance = 1.5;
/// Window after which the min-RTT estimate is restarted (tracks drift).
constexpr SimTime kMinRttWindow = sec(30);
/// Batch requests are admitted only while utilization (in-flight / limit,
/// or spent burst fraction for the token bucket) is below this fraction.
constexpr double kBatchThreshold = 0.75;

const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kNone: return "none";
    case AdmissionPolicy::kTokenBucket: return "token_bucket";
    case AdmissionPolicy::kAimd: return "aimd";
    case AdmissionPolicy::kGradient: return "gradient";
    case AdmissionPolicy::kKneeCoupled: return "knee_coupled";
  }
  return "?";
}

AdmissionController::AdmissionController(std::string service,
                                         AdmissionOptions options)
    : service_(std::move(service)), options_(options) {
  limit_ = std::clamp(options_.initial_limit, options_.min_limit,
                      options_.max_limit);
  tokens_ = options_.bucket_burst;
}

void AdmissionController::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    admit_counter_ = nullptr;
    limit_gauge_ = nullptr;
    return;
  }
  admit_counter_ =
      &metrics_->counter("admission.admitted", {{"service", service_}});
  limit_gauge_ = &metrics_->gauge("admission.limit", {{"service", service_}});
  limit_gauge_->set(limit_);
}

void AdmissionController::refill_tokens(SimTime now) {
  if (now <= last_refill_) return;
  tokens_ = std::min(
      options_.bucket_burst,
      tokens_ + to_sec(now - last_refill_) * options_.tokens_per_sec);
  last_refill_ = now;
}

SimTime AdmissionController::aimd_threshold() const {
  if (options_.aimd_latency_threshold > 0) {
    return options_.aimd_latency_threshold;
  }
  return min_rtt_ > 0 ? 2 * min_rtt_ : 0;
}

AdmissionDecision AdmissionController::decide(const RequestMeta& meta,
                                              SimTime now) {
  AdmissionDecision d;
  d.limit = limit_;
  if (meta.deadline > 0) {
    d.remaining_deadline = meta.deadline > now ? meta.deadline - now : 0;
  }

  // Deadline check first: a request whose remaining deadline is below the
  // min-RTT estimate cannot make it and is shed whatever the concurrency
  // policy says (it would only waste a slot).
  if (meta.deadline > 0 && min_rtt_ > 0 && d.remaining_deadline < min_rtt_) {
    d.admit = false;
    d.reason = "deadline";
    record_shed(meta, now, d);
    return d;
  }

  const double batch_room =
      meta.priority == Priority::kBatch ? kBatchThreshold : 1.0;

  switch (options_.policy) {
    case AdmissionPolicy::kNone:
      break;
    case AdmissionPolicy::kTokenBucket: {
      refill_tokens(now);
      // Batch may not drain the bucket below its reserved headroom.
      const double floor =
          meta.priority == Priority::kBatch
              ? (1.0 - kBatchThreshold) * options_.bucket_burst
              : 0.0;
      if (tokens_ - 1.0 < floor) {
        d.admit = false;
        d.reason = "no_tokens";
      } else {
        tokens_ -= 1.0;
      }
      break;
    }
    case AdmissionPolicy::kAimd:
    case AdmissionPolicy::kGradient:
      if (static_cast<double>(in_flight_) + 1.0 > limit_ * batch_room) {
        d.admit = false;
        d.reason = "concurrency_limit";
      }
      break;
    case AdmissionPolicy::kKneeCoupled:
      if (static_cast<double>(in_flight_) + 1.0 > limit_ * batch_room) {
        d.admit = false;
        d.reason = knee_ > 0.0 ? "knee_limit" : "concurrency_limit";
      }
      break;
  }

  if (!d.admit) record_shed(meta, now, d);
  return d;
}

void AdmissionController::on_admit(SimTime) {
  ++in_flight_;
  ++admitted_;
  if (admit_counter_ != nullptr) admit_counter_->add();
}

void AdmissionController::on_departure(SimTime now, SimTime rtt, bool ok) {
  if (in_flight_ > 0) --in_flight_;

  // Windowed min-RTT: only successful responses describe the service's
  // floor (an aborted visit returns instantly and would fake a tiny RTT).
  if (ok && rtt > 0) {
    if (now - min_rtt_window_start_ >= kMinRttWindow) {
      // Rotate: the finished window's min becomes the estimate, so a
      // persistent shift (slower service) ages in within one window.
      min_rtt_ = window_min_rtt_ > 0 ? window_min_rtt_ : rtt;
      window_min_rtt_ = rtt;
      min_rtt_window_start_ = now;
    } else {
      window_min_rtt_ =
          window_min_rtt_ > 0 ? std::min(window_min_rtt_, rtt) : rtt;
    }
    if (min_rtt_ == 0) min_rtt_ = rtt;
    min_rtt_ = std::min(min_rtt_, rtt);
    ewma_rtt_ = ewma_rtt_ == 0.0
                    ? static_cast<double>(rtt)
                    : (1.0 - kGradientSmoothing) * ewma_rtt_ +
                          kGradientSmoothing * static_cast<double>(rtt);
  }

  const double old_limit = limit_;
  switch (options_.policy) {
    case AdmissionPolicy::kAimd: {
      const SimTime threshold = aimd_threshold();
      const bool congested = !ok || (threshold > 0 && rtt > threshold);
      if (congested) {
        limit_ = std::max(options_.min_limit, limit_ * kAimdBackoff);
      } else {
        limit_ = std::min(options_.max_limit,
                          limit_ + kAimdIncrease / limit_);
      }
      break;
    }
    case AdmissionPolicy::kGradient: {
      if (!ok || min_rtt_ == 0 || ewma_rtt_ <= 0.0) break;
      // Vegas/Gradient2: shrink toward min_rtt/ewma_rtt when latency
      // inflates beyond the tolerance, grow by a sqrt queue allowance when
      // the service is keeping up.
      const double gradient = std::clamp(
          kGradientTolerance * static_cast<double>(min_rtt_) / ewma_rtt_, 0.5,
          1.0);
      const double target = limit_ * gradient + std::sqrt(limit_);
      limit_ = std::clamp((1.0 - kGradientSmoothing) * limit_ +
                              kGradientSmoothing * target,
                          options_.min_limit, options_.max_limit);
      break;
    }
    case AdmissionPolicy::kNone:
    case AdmissionPolicy::kTokenBucket:
    case AdmissionPolicy::kKneeCoupled:
      break;
  }
  if (limit_ != old_limit && limit_gauge_ != nullptr) {
    limit_gauge_->set(limit_);
  }
  // Adaptive-limit drift is continuous; individual departures are not worth
  // a log record each (the limit gauge tracks them). Discrete jumps — knee
  // updates — are logged in set_knee.
}

void AdmissionController::set_knee(double aggregate_knee, SimTime now) {
  if (aggregate_knee <= 0.0) return;
  knee_ = aggregate_knee;
  ++knee_updates_;
  if (options_.policy != AdmissionPolicy::kKneeCoupled) return;
  const double old_limit = limit_;
  limit_ = std::clamp(aggregate_knee * options_.knee_headroom,
                      options_.min_limit, options_.max_limit);
  if (limit_ != old_limit) note_limit_change(old_limit, now, "knee update");
}

void AdmissionController::set_knee_headroom(double headroom, SimTime now) {
  if (headroom <= 0.0) return;
  options_.knee_headroom = headroom;
  if (options_.policy != AdmissionPolicy::kKneeCoupled || knee_ <= 0.0) return;
  const double old_limit = limit_;
  limit_ = std::clamp(knee_ * options_.knee_headroom, options_.min_limit,
                      options_.max_limit);
  if (limit_ != old_limit) note_limit_change(old_limit, now, "ctl headroom");
}

void AdmissionController::set_limit_bounds(double min_limit, double max_limit,
                                           SimTime now) {
  if (min_limit > 0.0) options_.min_limit = min_limit;
  if (max_limit > 0.0) options_.max_limit = max_limit;
  if (options_.max_limit < options_.min_limit) {
    options_.max_limit = options_.min_limit;
  }
  const double old_limit = limit_;
  limit_ = std::clamp(limit_, options_.min_limit, options_.max_limit);
  if (limit_ != old_limit) note_limit_change(old_limit, now, "ctl bounds");
}

void AdmissionController::note_limit_change(double old_limit, SimTime now,
                                            const char* why) {
  if (limit_gauge_ != nullptr) limit_gauge_->set(limit_);
  if (log_ == nullptr) return;
  obs::ControlDecisionRecord rec;
  rec.at = now;
  rec.controller = "admission";
  rec.target = service_;
  rec.action = "limit_update";
  rec.policy = to_string(options_.policy);
  rec.admission_limit = limit_;
  rec.old_size = static_cast<int>(old_limit);
  rec.new_size = static_cast<int>(limit_);
  rec.knee_concurrency = knee_;
  rec.reason = why;
  log_->append(std::move(rec));
}

void AdmissionController::record_shed(const RequestMeta& meta, SimTime now,
                                      const AdmissionDecision& d) {
  ++shed_;
  ++shed_by_priority_[static_cast<int>(meta.priority)];
  if (metrics_ != nullptr) {
    metrics_
        ->counter("admission.shed", {{"service", service_},
                                     {"policy", to_string(options_.policy)},
                                     {"reason", d.reason},
                                     {"priority", to_string(meta.priority)}})
        .add();
  }
  if (log_ != nullptr) {
    obs::ControlDecisionRecord rec;
    rec.at = now;
    rec.controller = "admission";
    rec.target = service_;
    rec.action = "shed";
    rec.reason = d.reason;
    rec.policy = to_string(options_.policy);
    rec.admission_limit = d.limit;
    rec.remaining_deadline = d.remaining_deadline;
    rec.priority = to_string(meta.priority);
    log_->append(std::move(rec));
  }
}

}  // namespace sora
