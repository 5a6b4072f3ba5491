// LSRAM-style lightweight gradient-descent SLO allocation.
//
// LSRAM (see PAPERS.md) treats resource allocation as online optimization:
// each round it evaluates an SLO-violation + cost objective at the current
// allocation and takes one clamped gradient step, warm-started from the
// previous round's evaluation instead of re-exploring. Here the allocation
// axis is a soft-resource pool (a ResourceKnob: entry thread pool or edge
// connection pool), the objective is
//
//   J(x) = kViolationWeight * viol_frac(x) + kCostWeight * x / max_x
//
// (constants in lsram.cc; max_x is GradientStepper::kMaxX)
// with viol_frac measured from completed spans of the knob's completion
// service over the last window, and the gradient is a finite difference
// against the previous round's (allocation, objective) pair.
//
// GradientStepper holds the per-knob optimization state and is exposed
// directly so the step clamping / convergence behavior is unit-testable on
// synthetic surfaces without a simulator (tests/test_lsram.cc).
#pragma once

#include <cstddef>
#include <vector>

#include "autoscale/controller.h"
#include "metrics/knob.h"
#include "sim/simulator.h"
#include "trace/warehouse.h"

namespace sora {

class Application;

/// One-dimensional warm-started gradient descent with clamped steps.
/// step(x, j) consumes this round's evaluation of the objective at x and
/// returns the next allocation to try, within [kMinX, kMaxX]. The first
/// call (nothing to difference against yet) probes by +kProbeStep (in
/// lsram.cc); a zero-length move or a flat gradient holds.
class GradientStepper {
 public:
  /// Allocation bounds; every returned step is clamped into them.
  static constexpr double kMinX = 1.0;
  static constexpr double kMaxX = 512.0;

  double step(double x, double j);

  /// Forget the warm start (topology changed: the old surface is gone).
  void reset() { has_prev_ = false; }
  bool warm() const { return has_prev_; }

 private:
  bool has_prev_ = false;
  double prev_x_ = 0.0;
  double prev_j_ = 0.0;
};

struct LsramOptions {
  /// Per-span latency objective for the knob's completion service: spans
  /// slower than this count as violations.
  SimTime span_slo = msec(100);
};

class LsramController : public Controller {
 public:
  LsramController(Application& app, TraceWarehouse& warehouse,
                  LsramOptions options = {});

  /// Put a soft-resource pool under gradient control.
  void manage(const ResourceKnob& knob);

  const char* name() const override { return "lsram"; }
  std::size_t max_actions_per_round() const override { return knobs_.size(); }

  void on_topology_changed(Service* service, const std::string& why) override;

 protected:
  void begin() override { window_start_ = sim().now(); }
  void observe(SimTime now) override;
  void decide(SimTime now) override;

 private:
  Application& app_;
  TraceWarehouse& warehouse_;
  LsramOptions options_;

  std::vector<ResourceKnob> knobs_;
  std::vector<GradientStepper> steppers_;  ///< parallel to knobs_

  // Window evidence gathered by observe(), parallel to knobs_.
  SimTime window_start_ = 0;
  std::vector<std::size_t> span_counts_;
  std::vector<std::size_t> violations_;
};

}  // namespace sora
