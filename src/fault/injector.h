// Deterministic fault injector.
//
// Arms a FaultPlan into the simulator event loop and performs each fault
// when its time comes:
//
//   crash_instance  -> Service::crash_replica (drain or drop in-flight),
//                      restore after the downtime; frameworks are told to
//                      re-localize (the autoscaler did not cause this)
//   cpu_limit_step  -> Service::set_cpu_limit, *unannounced*: unlike a
//                      hardware autoscaler event there is no
//                      on_hardware_scaled notification — controllers must
//                      notice the drift through telemetry
//   span_dropout    -> a fraction of span reports never reach the span
//                      listeners (Tracer span interceptor)
//   scatter_dropout -> a fraction of scatter buckets are discarded before
//                      entering the estimators' scatter windows
//   control_stall   -> every attached framework/autoscaler skips rounds
//
// Every decision point appends a controller="fault" record (with a
// fault_kind field) to the decision log, so a run's fault history reads out
// of the same JSONL stream as the controllers' reactions to it.
//
// Determinism: the injector draws from its own seed-forked RNG streams,
// only from inside simulator callbacks (so draws happen in event order),
// and owns no wall-clock or cross-experiment state. Same seed + same plan
// => byte-identical decision log and summary, across reruns and across
// SweepRunner thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "fault/fault_plan.h"

namespace sora {

class Application;
class Controller;
class Service;
class Simulator;
class SoraFramework;
class Tracer;
namespace obs {
class DecisionLog;
}

class FaultInjector {
 public:
  /// Everything the injector acts on. `log` may be null (no audit records);
  /// the controller lists may be empty (telemetry faults then only count).
  /// `controllers` is the uniform list every control plane lives on —
  /// stalls and topology notifications go through the shared Controller
  /// contract. `frameworks` additionally names the Sora/ConScale instances
  /// (also present in `controllers`) whose estimator internals the scatter-
  /// dropout fault gates.
  struct Hooks {
    Simulator* sim = nullptr;
    Application* app = nullptr;
    Tracer* tracer = nullptr;
    obs::DecisionLog* log = nullptr;
    std::vector<Controller*> controllers;
    std::vector<SoraFramework*> frameworks;
  };

  FaultInjector(FaultPlan plan, Hooks hooks, std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule every plan event (events in the past fire immediately) and
  /// install the telemetry interceptors. Call once, before the run.
  void arm();

  const FaultPlan& plan() const { return plan_; }
  bool armed() const { return armed_; }

  /// Fire an ad-hoc event immediately (ctl plane's `fault ...` command).
  /// Must be called from inside a simulator callback — the ctl safepoint is
  /// one — so the fault lands at a well-defined point in event order.
  void trigger(const FaultEvent& ev);

  // -- outcome counters --------------------------------------------------------

  std::uint64_t events_fired() const { return events_fired_; }
  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t crashes_refused() const { return crashes_refused_; }
  std::uint64_t restarts() const { return restarts_; }
  std::uint64_t cpu_steps() const { return cpu_steps_; }
  std::uint64_t spans_dropped() const { return spans_dropped_; }
  std::uint64_t scatter_dropped() const { return scatter_dropped_; }
  std::uint64_t stalls() const { return stalls_; }

 private:
  void fire(const FaultEvent& ev);
  void fire_crash(const FaultEvent& ev);
  void fire_cpu_step(const FaultEvent& ev);
  void fire_span_window(const FaultEvent& ev);
  void fire_scatter_window(const FaultEvent& ev);
  void fire_stall(const FaultEvent& ev);

  bool admit_span();
  bool admit_scatter_bucket();

  void set_stall(bool on);

  /// Append a controller="fault" decision record.
  void record(const FaultEvent& ev, const char* action,
              const std::string& target, const std::string& reason,
              double old_cores = 0.0, double new_cores = 0.0,
              int old_replicas = 0, int new_replicas = 0);
  void count_event(FaultKind kind);

  FaultPlan plan_;
  Hooks hooks_;
  bool armed_ = false;

  // Independent streams so e.g. the span coin flips never shift the
  // scatter coin flips when windows overlap.
  Rng rng_spans_;
  Rng rng_scatter_;

  // Active telemetry windows (depth counters support overlapping events;
  // the most recent event's fraction wins).
  int span_drop_depth_ = 0;
  int scatter_drop_depth_ = 0;
  int stall_depth_ = 0;
  double span_drop_fraction_ = 0.0;
  double scatter_drop_fraction_ = 0.0;

  std::uint64_t events_fired_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t crashes_refused_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t cpu_steps_ = 0;
  std::uint64_t spans_dropped_ = 0;
  std::uint64_t scatter_dropped_ = 0;
  std::uint64_t stalls_ = 0;
};

}  // namespace sora
