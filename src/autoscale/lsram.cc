#include "autoscale/lsram.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/log.h"
#include "svc/application.h"
#include "svc/service.h"

namespace sora {

/// |gradient| below this reads as a flat surface: hold instead of drifting
/// on noise.
constexpr double kFlatGradient = 1e-6;
constexpr double kViolationWeight = 1.0;
constexpr double kCostWeight = 0.05;
constexpr double kLearningRate = 8.0;
constexpr double kMaxStep = 4.0;  ///< per-round step clamp (both directions)
/// First move, and the restart when the surface is flat.
constexpr double kProbeStep = 1.0;
/// Hold (fail closed) when the window has fewer spans than this.
constexpr std::size_t kMinSpans = 20;

double GradientStepper::step(double x, double j) {
  x = std::clamp(x, kMinX, kMaxX);
  if (!has_prev_) {
    // Nothing to difference against: probe once to create a baseline pair.
    has_prev_ = true;
    prev_x_ = x;
    prev_j_ = j;
    return std::clamp(x + kProbeStep, kMinX, kMaxX);
  }

  const double dx = x - prev_x_;
  prev_x_ = x;
  const double dj = j - prev_j_;
  prev_j_ = j;

  if (dx == 0.0) {
    // The previous step was absorbed (clamped, rounded away, or externally
    // reverted): no gradient information. Probe downhill-agnostically.
    return std::clamp(x + kProbeStep, kMinX, kMaxX);
  }

  const double gradient = dj / dx;
  if (std::abs(gradient) < kFlatGradient) {
    // Flat surface: hold rather than drift on numerical noise.
    return x;
  }
  double step = -kLearningRate * gradient;
  step = std::clamp(step, -kMaxStep, kMaxStep);
  return std::clamp(x + step, kMinX, kMaxX);
}

LsramController::LsramController(Application& app, TraceWarehouse& warehouse,
                                 LsramOptions options)
    : Controller(app.sim(), kControlPeriod),
      app_(app),
      warehouse_(warehouse),
      options_(options) {
  set_metrics(&app.metrics());
}

void LsramController::manage(const ResourceKnob& knob) {
  for (const ResourceKnob& existing : knobs_) {
    if (existing == knob) return;
  }
  knobs_.push_back(knob);
  steppers_.emplace_back();
}

void LsramController::observe(SimTime now) {
  const std::size_t n = knobs_.size();
  span_counts_.assign(n, 0);
  violations_.assign(n, 0);

  warehouse_.for_each_in_window(window_start_, now, [&](const Trace& t) {
    for (const Span& s : t.spans) {
      if (s.failed) continue;
      for (std::size_t i = 0; i < n; ++i) {
        if (knobs_[i].completion_service() == s.service) {
          ++span_counts_[i];
          if (s.duration() > options_.span_slo) ++violations_[i];
        }
      }
    }
  });
  window_start_ = now;
}

void LsramController::decide(SimTime now) {
  if (knobs_.empty()) {
    obs::ControlDecisionRecord rec;
    rec.at = now;
    rec.action = "round";
    rec.reason = "gradient round completed with no managed knobs";
    record_decision(std::move(rec));
    return;
  }

  for (std::size_t i = 0; i < knobs_.size(); ++i) {
    const ResourceKnob& knob = knobs_[i];
    const int current = knob.current_size();

    obs::ControlDecisionRecord rec;
    rec.at = now;
    rec.target = knob.label();
    rec.traces_analyzed = span_counts_[i];
    rec.old_size = rec.new_size = current;

    if (span_counts_[i] < kMinSpans) {
      // Fail closed: a gradient computed from a starved window optimizes
      // noise. Hold the allocation and keep the warm start for later — but
      // note the previous evaluation is now stale.
      rec.action = "hold";
      rec.reason = "insufficient window telemetry (" +
                   std::to_string(span_counts_[i]) + " spans < " +
                   std::to_string(kMinSpans) +
                   "), holding allocation";
      record_decision(std::move(rec));
      continue;
    }

    const double viol_frac = static_cast<double>(violations_[i]) /
                             static_cast<double>(span_counts_[i]);
    const double cost = static_cast<double>(current) / GradientStepper::kMaxX;
    const double objective = kViolationWeight * viol_frac + kCostWeight * cost;
    rec.objective = objective;
    rec.objective_valid = true;
    rec.good_fraction = 1.0 - viol_frac;

    const bool was_warm = steppers_[i].warm();
    const double next =
        steppers_[i].step(static_cast<double>(current), objective);
    const int desired = static_cast<int>(std::lround(next));

    if (desired != current) {
      knob.apply(desired);
      rec.action = was_warm ? "gradient_step" : "probe";
      rec.reason = was_warm
                       ? "gradient step against SLO-violation + cost objective"
                       : "probing allocation to seed the gradient warm start";
      rec.new_size = desired;
      ControlAction act;
      act.kind = ControlAction::Kind::kPoolResize;
      act.target = knob.label();
      act.reason = rec.reason;
      act.old_size = current;
      act.new_size = desired;
      emit(std::move(act));
      SORA_INFO << "lsram " << knob.label() << " size " << current << " -> "
                << desired << " (J " << objective << ", viol " << viol_frac
                << ")";
    } else {
      rec.action = "hold";
      rec.reason = "gradient flat or step rounded away, holding allocation";
    }
    record_decision(std::move(rec));
  }
}

void LsramController::on_topology_changed(Service* service,
                                          const std::string& why) {
  for (std::size_t i = 0; i < knobs_.size(); ++i) {
    const bool owns = knobs_[i].service() == service;
    const bool targets = knobs_[i].is_edge() &&
                         knobs_[i].completion_service() == service->id();
    if (owns || targets) steppers_[i].reset();
  }
  obs::ControlDecisionRecord rec;
  rec.at = sim().now();
  rec.target = service->name();
  rec.action = "relocalize";
  rec.reason = "topology changed (" + why +
               "): gradient warm start discarded for affected knobs";
  record_decision(std::move(rec));
}

}  // namespace sora
