// Deterministic fault plans.
//
// A FaultPlan is a scripted schedule of fault events — replica crashes,
// CPU-limit steps, telemetry dropout windows, control-plane stalls — that
// the FaultInjector arms into the simulator event loop. Every event names
// its own sim time, so the same plan always produces the same faults at the
// same sim times: faulted runs stay byte-for-byte reproducible, under
// SweepRunner parallelism included.
#pragma once

#include <string>
#include <vector>

#include "common/time.h"

namespace sora {

enum class FaultKind {
  kCrashInstance,   ///< take one replica down (drain or drop), restart later
  kCpuLimitStep,    ///< step a service's per-replica CPU limit at runtime
  kSpanDropout,     ///< drop a fraction of tracer span reports
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

  /// Affected fraction for kSpanDropout / kScatterDropout.
  double fraction = 0.0;
  /// New per-replica CPU limit for kCpuLimitStep.
  double cores = 0.0;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Append one scripted event (kept sorted by injection time, stable for
  /// equal times, when armed).
  FaultPlan& add(FaultEvent ev);

  const std::vector<FaultEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace sora
