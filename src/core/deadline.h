// RT Threshold Propagation Phase (Section 3.2, Eq. 1-3).
//
// The response-time threshold (local deadline) of the critical service s_i
// is the end-to-end SLA minus the processing time of every upstream service
// on the critical path:
//
//     RTT_si <= SLA - sum_{k=0}^{i-1} PT_sk
//
// Upstream processing times are measured from the message timestamps in
// recent traces; we propagate the mean over the analysis window. For a
// service the warehouse tracks (TraceWarehouse::track_upstream), the sums were
// taken when each trace was stored and are read from its upstream column.
#pragma once

#include <cstddef>

#include "common/ids.h"
#include "common/time.h"
#include "trace/warehouse.h"

namespace sora {

/// Never propagate a threshold below this floor (a service can't do
/// anything useful with a non-positive deadline).
inline constexpr SimTime kMinDeadlineThreshold = msec(1);

/// Besides kMinDeadlineThreshold, the propagated threshold is floored at
/// this fraction of the SLA. Under upstream congestion the
/// measured upstream PT can transiently exceed the whole SLA; propagating a
/// near-zero deadline would declare every completion "bad" and blind the
/// SCG model exactly when it must act.
inline constexpr double kMinDeadlineFractionOfSla = 0.1;

struct DeadlineOptions {
  /// Upper bound on traces folded into the mean (0 = fold every trace in
  /// the window). When the window holds more, every k-th trace is
  /// folded (deterministic systematic sampling, no RNG) so the per-round
  /// cost stays bounded on planet-scale fleets where critical paths run
  /// hundreds of hops; the propagated mean is statistically unchanged.
  std::size_t max_traces = 0;
};

struct DeadlineResult {
  bool valid = false;
  SimTime rt_threshold = 0;       ///< propagated local deadline for s_i
  SimTime mean_upstream_pt = 0;   ///< mean sum of upstream PTs
  std::size_t traces_used = 0;    ///< traces whose critical path contains s_i
};

/// Compute the propagated deadline for `critical` from traces completed in
/// [from, to], given the end-to-end SLA.
DeadlineResult propagate_deadline(const TraceWarehouse& warehouse, SimTime from,
                                  SimTime to, ServiceId critical, SimTime sla,
                                  const DeadlineOptions& options = {});

}  // namespace sora
