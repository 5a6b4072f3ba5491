// Autothrottle-style bi-level latency-target controller.
//
// Autothrottle (NSDI '24, see PAPERS.md) splits control into two levels: a
// slow global allocator that assigns each service a performance target from
// the end-to-end latency budget, and fast per-service local controllers
// that enforce the target between allocator rounds. Here the fast half is
// the PR-5 admission layer itself — each managed service's
// AdmissionController is the throttler, and the allocator steers it through
// the same set_knee() publication path the Sora framework uses: the
// published value is the admitted-concurrency cap, which kKneeCoupled
// admission enforces per request at zero allocator involvement.
//
// Each slow round the allocator:
//   1. measures per-service span p99 and demand share over the last window;
//   2. converts per-service burn (p99 / current target) and demand share
//      into latency credits: targets proportional to demand x (1 + burn),
//      summing to the end-to-end budget (allocate_latency_targets);
//   3. nudges each service's concurrency cap against its target —
//      multiplicative backoff when p99 overshoots the target, additive
//      increase when comfortably under it (AIMD, but at allocator cadence);
//   4. publishes the cap via AdmissionController::set_knee().
//
// Degenerate inputs fail closed: an empty trace window, a service with no
// spans, or a missing admission controller all hold the previous caps and
// say so in the decision record.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "autoscale/controller.h"
#include "sim/simulator.h"
#include "trace/warehouse.h"

namespace sora {

class Application;
class Service;

/// Split `budget_ms` of end-to-end latency across services: credits
/// proportional to demand_share[i] * (1 + burn[i]), so hot services (high
/// demand) and struggling services (high burn = observed p99 / target) earn
/// larger targets. Every target is at least `min_target_ms` (when the
/// budget can afford it) and the targets sum to budget_ms. Empty input,
/// mismatched sizes, or a non-positive budget return an empty vector (fail
/// closed).
std::vector<double> allocate_latency_targets(
    const std::vector<double>& demand_share, const std::vector<double>& burn,
    double budget_ms, double min_target_ms);

/// Admitted-concurrency cap a managed service starts from (the cap
/// controller is a slow AIMD on this cap).
inline constexpr double kAutothrottleInitialCap = 64.0;

/// Slow allocator cadence (2x the other controllers' kControlPeriod: the
/// fast loop is the admission layer, the allocator only moves targets).
inline constexpr SimTime kAutothrottlePeriod = 2 * kControlPeriod;

/// Floor of every allocated latency target (allocate_latency_targets'
/// min_target_ms).
inline constexpr double kAutothrottleMinTargetMs = 5.0;

struct AutothrottleOptions {
  /// End-to-end latency budget the credits are carved from (the SLA).
  SimTime budget = msec(400);
};

class AutothrottleController : public Controller {
 public:
  AutothrottleController(Application& app, TraceWarehouse& warehouse,
                         AutothrottleOptions options = {});

  /// Put a service under allocator control. Its admission controller (if
  /// installed) becomes the fast local throttler.
  void manage(Service* service);

  const char* name() const override { return "autothrottle"; }
  /// Per service and round: one latency-target assignment plus one cap
  /// publication.
  std::size_t max_actions_per_round() const override {
    return managed_.size() * 2;
  }

  /// Current per-service latency targets (ms), in manage() order (0 until
  /// the first completed allocation round).
  const std::vector<double>& targets_ms() const { return targets_ms_; }
  /// Current per-service concurrency caps, in manage() order.
  const std::vector<double>& caps() const { return caps_; }

 protected:
  void begin() override { window_start_ = sim().now(); }
  void observe(SimTime now) override;
  void decide(SimTime now) override;

 private:
  Application& app_;
  TraceWarehouse& warehouse_;
  AutothrottleOptions options_;

  std::vector<Service*> managed_;
  std::vector<double> targets_ms_;  ///< per managed service, 0 = unassigned
  std::vector<double> caps_;        ///< per managed service

  // Window evidence gathered by observe().
  SimTime window_start_ = 0;
  std::vector<double> observed_p99_ms_;   ///< per managed service
  std::vector<std::size_t> span_counts_;  ///< per managed service
  std::size_t window_spans_ = 0;          ///< total across managed services
};

}  // namespace sora
