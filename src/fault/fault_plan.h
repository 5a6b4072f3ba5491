// Deterministic fault plans.
//
// A FaultPlan is a schedule of fault events — replica crashes, CPU-limit
// steps, telemetry dropout/delay windows, control-plane stalls — that the
// FaultInjector arms into the simulator event loop. Plans are either
// scripted (add() each event) or derived from the experiment seed
// (FaultPlan::random), so the same seed always produces the same faults at
// the same sim times: faulted runs stay byte-for-byte reproducible, under
// SweepRunner parallelism included.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace sora {

enum class FaultKind {
  kCrashInstance,   ///< take one replica down (drain or drop), restart later
  kCpuLimitStep,    ///< step a service's per-replica CPU limit at runtime
  kSpanDropout,     ///< drop a fraction of tracer span reports
  kSpanDelay,       ///< delay a fraction of tracer span reports
  kScatterDropout,  ///< drop a fraction of scatter sample buckets
  kControlStall,    ///< stall every control loop (rounds skipped, not run)
};

/// Stable lower_snake_case name, used as the decision log's fault_kind.
const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kCrashInstance;
  SimTime at = 0;  ///< injection time (sim clock)

  /// Target service name for kCrashInstance / kCpuLimitStep ("" = n/a).
  std::string service;
  /// Preferred replica index for kCrashInstance; the injector crashes the
  /// first *active* replica at or after this index (wrapping), so a plan
  /// stays valid whatever the autoscaler did to the replica set meanwhile.
  std::size_t instance = 0;
  /// kCrashInstance: abort in-flight visits instead of draining them.
  bool drop_inflight = false;

  /// How long the fault lasts: crash downtime before restart, telemetry
  /// window length, stall length. 0 = permanent (no restore event).
  /// Ignored by kCpuLimitStep (steps are permanent state changes).
  SimTime duration = 0;

  /// Affected fraction for kSpanDropout / kSpanDelay / kScatterDropout.
  double fraction = 0.0;
  /// Redelivery delay for kSpanDelay.
  SimTime delay = 0;
  /// New per-replica CPU limit for kCpuLimitStep.
  double cores = 0.0;
};

/// Uniform range a seed-derived CPU step draws the stepped limit from.
inline constexpr double kRandomCpuCoresLo = 0.5;
inline constexpr double kRandomCpuCoresHi = 2.0;

/// Knobs for seed-derived plans. Counts are exact (not expectations); the
/// injection times are drawn uniformly from the middle of the horizon so
/// restores land inside the run.
struct RandomFaultOptions {
  /// Candidate crash targets; empty disables crash events.
  std::vector<std::string> crash_services;
  /// Candidate CPU-step targets; empty disables CPU events.
  std::vector<std::string> cpu_services;

  int crashes = 1;
  int cpu_steps = 1;
  int span_dropouts = 0;
  int scatter_dropouts = 1;
  int control_stalls = 1;

  bool drop_inflight = true;
  SimTime crash_downtime = sec(45);
  SimTime dropout_duration = sec(60);
  SimTime stall_duration = sec(45);

  /// Events are drawn in [earliest * horizon, latest * horizon].
  double earliest = 0.15;
  double latest = 0.70;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Append one scripted event (kept sorted by injection time, stable for
  /// equal times, when armed).
  FaultPlan& add(FaultEvent ev);

  /// Derive a plan from a seed: same (seed, horizon, options) => identical
  /// event list, independent of everything else in the experiment.
  static FaultPlan random(std::uint64_t seed, SimTime horizon,
                          RandomFaultOptions options = {});

  const std::vector<FaultEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace sora
