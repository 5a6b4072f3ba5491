#include "autoscale/autothrottle.h"

#include <algorithm>
#include <vector>

#include "admission/controller.h"
#include "common/log.h"
#include "common/stats.h"
#include "svc/application.h"
#include "svc/service.h"

namespace sora {

// Cap controller bounds and AIMD steps.
constexpr double kMinCap = 2.0;
constexpr double kMaxCap = 4096.0;
constexpr double kBackoff = 0.85;  ///< multiplicative decrease on overshoot
constexpr double kIncrease = 2.0;  ///< additive increase when under target
/// p99 below this x target allows increase.
constexpr double kRelaxFraction = 0.7;
/// Hold everything when the window carries fewer spans than this (fail
/// closed on missing telemetry).
constexpr std::size_t kMinSpans = 20;

std::vector<double> allocate_latency_targets(
    const std::vector<double>& demand_share, const std::vector<double>& burn,
    double budget_ms, double min_target_ms) {
  const std::size_t n = demand_share.size();
  if (n == 0 || burn.size() != n || budget_ms <= 0.0) return {};
  if (min_target_ms < 0.0) min_target_ms = 0.0;

  // Credits: demand x (1 + burn). A service carrying more of the traffic or
  // burning hotter against its current target earns a larger slice.
  std::vector<double> weight(n, 0.0);
  double sum_w = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    weight[i] = std::max(demand_share[i], 0.0) * (1.0 + std::max(burn[i], 0.0));
    sum_w += weight[i];
  }

  std::vector<double> target(n, 0.0);
  if (sum_w <= 0.0) {
    // No demand signal at all: equal split keeps the sum invariant without
    // inventing a preference.
    std::fill(target.begin(), target.end(), budget_ms / static_cast<double>(n));
    return target;
  }
  for (std::size_t i = 0; i < n; ++i) {
    target[i] = budget_ms * weight[i] / sum_w;
  }

  // The floor cannot be honored for everyone when the budget is too small;
  // fall back to the equal split (sum preserved, floor best-effort).
  if (budget_ms < min_target_ms * static_cast<double>(n)) {
    std::fill(target.begin(), target.end(), budget_ms / static_cast<double>(n));
    return target;
  }

  // Raise sub-floor targets to the floor and re-shrink the rest
  // proportionally so the total stays exactly the budget. Each pass can
  // push more targets below the floor, so iterate to a fixed point (at most
  // n passes: the clamped set only grows).
  for (std::size_t pass = 0; pass < n; ++pass) {
    double clamped_sum = 0.0;
    double free_sum = 0.0;
    bool any_below = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (target[i] <= min_target_ms) {
        if (target[i] < min_target_ms) any_below = true;
        clamped_sum += min_target_ms;
      } else {
        free_sum += target[i];
      }
    }
    if (!any_below) break;
    const double remaining = budget_ms - clamped_sum;
    for (std::size_t i = 0; i < n; ++i) {
      if (target[i] <= min_target_ms) {
        target[i] = min_target_ms;
      } else {
        target[i] = free_sum > 0.0 ? target[i] * remaining / free_sum
                                   : min_target_ms;
      }
    }
  }
  return target;
}

AutothrottleController::AutothrottleController(Application& app,
                                               TraceWarehouse& warehouse,
                                               AutothrottleOptions options)
    : Controller(app.sim(), kAutothrottlePeriod),
      app_(app),
      warehouse_(warehouse),
      options_(options) {
  set_metrics(&app.metrics());
}

void AutothrottleController::manage(Service* service) {
  for (const Service* s : managed_) {
    if (s == service) return;
  }
  managed_.push_back(service);
  targets_ms_.push_back(0.0);
  caps_.push_back(kAutothrottleInitialCap);
}

void AutothrottleController::observe(SimTime now) {
  const std::size_t n = managed_.size();
  observed_p99_ms_.assign(n, 0.0);
  span_counts_.assign(n, 0);
  window_spans_ = 0;

  std::vector<std::vector<double>> durations(n);
  warehouse_.for_each_in_window(window_start_, now, [&](const Trace& t) {
    for (const Span& s : t.spans) {
      if (s.failed) continue;
      for (std::size_t i = 0; i < n; ++i) {
        if (managed_[i]->id() == s.service) {
          durations[i].push_back(static_cast<double>(s.duration()));
          break;
        }
      }
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    span_counts_[i] = durations[i].size();
    window_spans_ += durations[i].size();
    if (!durations[i].empty()) {
      observed_p99_ms_[i] =
          to_msec(static_cast<SimTime>(percentile(durations[i], 99.0)));
    }
  }
  window_start_ = now;
}

void AutothrottleController::decide(SimTime now) {
  const std::size_t n = managed_.size();
  if (n == 0) {
    obs::ControlDecisionRecord rec;
    rec.at = now;
    rec.action = "round";
    rec.reason = "allocator round completed with no managed services";
    record_decision(std::move(rec));
    return;
  }

  if (window_spans_ < kMinSpans) {
    // Fail closed: without a trustworthy latency picture, moving targets or
    // caps is guessing. Hold everything and say so, once per service so the
    // audit trail stays per-target.
    for (std::size_t i = 0; i < n; ++i) {
      obs::ControlDecisionRecord rec;
      rec.at = now;
      rec.target = managed_[i]->name();
      rec.action = "hold";
      rec.reason = "insufficient window telemetry (" +
                   std::to_string(window_spans_) + " spans < " +
                   std::to_string(kMinSpans) +
                   "), holding targets and caps";
      rec.latency_target_ms = targets_ms_[i];
      rec.observed_p99_ms = observed_p99_ms_[i];
      record_decision(std::move(rec));
    }
    return;
  }

  // Slow level: carve the end-to-end budget into per-service credits.
  const double budget_ms = to_msec(options_.budget);
  std::vector<double> demand(n, 0.0);
  std::vector<double> burn(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    demand[i] = static_cast<double>(span_counts_[i]) /
                static_cast<double>(window_spans_);
    const double prev_target = targets_ms_[i] > 0.0
                                   ? targets_ms_[i]
                                   : budget_ms / static_cast<double>(n);
    burn[i] = prev_target > 0.0 ? observed_p99_ms_[i] / prev_target : 0.0;
  }
  std::vector<double> next = allocate_latency_targets(
      demand, burn, budget_ms, kAutothrottleMinTargetMs);
  if (next.size() != n) return;  // fail closed (cannot happen here)

  for (std::size_t i = 0; i < n; ++i) {
    Service& svc = *managed_[i];
    const double target = next[i];
    const double p99 = observed_p99_ms_[i];

    obs::ControlDecisionRecord rec;
    rec.at = now;
    rec.target = svc.name();
    rec.latency_target_ms = target;
    rec.observed_p99_ms = p99;
    rec.traces_analyzed = span_counts_[i];

    if (target != targets_ms_[i]) {
      ControlAction act;
      act.kind = ControlAction::Kind::kLatencyTarget;
      act.target = svc.name();
      act.latency_target_ms = target;
      act.reason = "allocated latency credit from demand share and burn rate";
      emit(std::move(act));
    }
    targets_ms_[i] = target;

    // Fast-level coupling: steer the service's admission throttler by
    // republishing its concurrency cap (AIMD at allocator cadence).
    const double old_cap = caps_[i];
    double cap = old_cap;
    if (span_counts_[i] == 0 || p99 <= 0.0) {
      rec.action = "hold";
      rec.reason = "no span latency observed for service, holding cap";
    } else if (p99 > target) {
      cap = std::max(kMinCap, cap * kBackoff);
      rec.action = "throttle_down";
      rec.reason = "span p99 above allocated latency target";
    } else if (p99 < kRelaxFraction * target) {
      cap = std::min(kMaxCap, cap + kIncrease);
      rec.action = "throttle_up";
      rec.reason = "span p99 comfortably below allocated latency target";
    } else {
      rec.action = "hold";
      rec.reason = "span p99 within the allocated latency target";
    }
    caps_[i] = cap;
    rec.admission_limit = cap;

    if (cap != old_cap) {
      if (svc.admission() != nullptr) {
        svc.admission()->set_knee(cap, now);
        ControlAction act;
        act.kind = ControlAction::Kind::kAdmissionTarget;
        act.target = svc.name();
        act.admission_target = cap;
        act.reason = rec.reason;
        emit(std::move(act));
        SORA_INFO << "autothrottle " << svc.name() << " cap " << old_cap
                  << " -> " << cap << " (p99 " << p99 << "ms, target "
                  << target << "ms)";
      } else {
        rec.reason += "; no admission controller installed, cap not enforced";
      }
    }
    record_decision(std::move(rec));
  }
}

}  // namespace sora
