// Differential span alignment between two deterministic runs.
//
// The causal profiler re-runs an experiment with a perturbation overlay
// applied from a checkpoint onward. Because both runs draw from identical
// seeded RNG streams, every request injected before the runs diverge — and,
// with open/closed-loop generators driven by the same streams, every request
// after it too — carries the *same TraceId* in both runs. That identity
// makes counterfactual attribution exact: instead of comparing latency
// distributions, we align each baseline trace with its counterfactual twin
// and difference them span by span, aggregating the deltas per call-graph
// edge (parent service -> child service).
//
// Alignment is robust to structural drift between the runs: a span dropped
// in one run (fault injection, admission shedding, crash aborts) is counted
// as unmatched and skipped, and the cursor-based matcher re-synchronizes on
// the next service-id match, so one missing hop never misaligns the rest of
// the trace.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "trace/span.h"
#include "trace/warehouse.h"

namespace sora {

/// Latency delta accumulated on one call-graph edge. The "edge" is the
/// (caller service, callee service) pair; the root span's caller is the
/// end user, represented by an invalid ServiceId.
struct EdgeLatencyDelta {
  ServiceId parent;   ///< caller service (invalid = client -> entry edge)
  ServiceId service;  ///< callee service (the spans being differenced)
  std::size_t aligned = 0;  ///< span pairs matched on this edge

  SimTime base_duration = 0;  ///< sum of baseline span durations
  SimTime cf_duration = 0;    ///< sum of counterfactual span durations

  /// Mean per-span duration delta (counterfactual - baseline), ms.
  /// Negative = the perturbation made this edge faster.
  double mean_delta_ms() const {
    return aligned == 0
               ? 0.0
               : to_msec(cf_duration - base_duration) /
                     static_cast<double>(aligned);
  }
  /// Total duration delta across all aligned spans, ms.
  double total_delta_ms() const { return to_msec(cf_duration - base_duration); }
};

/// Result of aligning one baseline trace against its counterfactual twin.
struct TraceAlignment {
  std::size_t spans_aligned = 0;
  std::size_t base_unmatched = 0;  ///< baseline spans with no cf partner
  std::size_t cf_unmatched = 0;    ///< counterfactual spans with no partner
};

/// Aggregate differential over a window of traces.
struct DiffSummary {
  std::size_t traces_aligned = 0;
  std::size_t base_only = 0;  ///< baseline traces with no cf twin
  std::size_t cf_only = 0;    ///< counterfactual traces with no baseline twin
  std::size_t spans_aligned = 0;
  std::size_t spans_unmatched = 0;  ///< dropped/extra spans on either side

  /// Per-edge deltas, sorted by |total duration delta| descending.
  std::vector<EdgeLatencyDelta> edges;

  /// Sum of end-to-end response-time deltas (cf - base) over aligned
  /// traces, ms — the direct trace-level view of the causal effect.
  double e2e_delta_ms = 0.0;
};

/// Align the spans of two traces with the same TraceId. Spans are stored in
/// creation order in both runs; the matcher walks both vectors with a
/// cursor, pairing spans of equal service id and skipping (counting) spans
/// present on only one side. `edges` accumulates per-edge deltas across
/// calls (pass the same vector for every trace of a window).
TraceAlignment align_spans(const Trace& base, const Trace& cf,
                           std::vector<EdgeLatencyDelta>& edges);

/// Difference every baseline trace starting in [from, to] against the
/// counterfactual warehouse (matched by TraceId). Traces whose twin is
/// missing on either side are counted, not matched. The returned edge list
/// is sorted by |total duration delta| descending.
DiffSummary diff_warehouses(const TraceWarehouse& base,
                            const TraceWarehouse& cf, SimTime from, SimTime to);

}  // namespace sora
