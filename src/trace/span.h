// Distributed-tracing data model.
//
// Every end-user request carries a trace; each service visit is one span.
// Spans record the message timestamps the SCG model needs: arrival at the
// service, admission (soft-resource slot granted), departure, and the wall
// time blocked on downstream calls. From these we derive the per-service
// processing time PT_si (Section 3.2, Eq. 1-3) and the critical path.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/ids.h"
#include "common/time.h"

namespace sora {

/// One downstream call issued by a span. `parallel_group` identifies calls
/// issued concurrently (same group fires together); groups execute in
/// ascending order. Async callback edges (fire-and-forget notifications
/// issued as the visit completes — the mechanism that expresses
/// cross-service cycles) carry `async = true` and `parallel_group = -1`:
/// the caller never waits on them, so they contribute nothing to its
/// downstream_wait and are skipped by critical-path extraction.
struct ChildCall {
  SpanId child;
  int parallel_group = 0;
  SimTime issued = 0;    ///< When the caller initiated the call.
  SimTime returned = 0;  ///< When the response came back (0 for async).
  bool async = false;    ///< Fire-and-forget callback; caller never waits.
};

/// One service visit.
struct Span {
  SpanId id;
  TraceId trace;
  SpanId parent;  ///< invalid for the root span.
  ServiceId service;
  InstanceId instance;
  int request_class = 0;

  SimTime arrival = 0;    ///< Request message reached the service (or its
                          ///< connection gate).
  SimTime admitted = 0;   ///< Soft-resource slot granted; processing begins.
  SimTime departure = 0;  ///< Response message left the service.

  /// Total wall time this span spent blocked waiting on >= 1 downstream
  /// call (parallel waits counted once).
  SimTime downstream_wait = 0;

  /// The visit was aborted (replica crash dropped it mid-flight); the span
  /// closed early with an error response. Failed spans are excluded from
  /// goodput/throughput sampling.
  bool failed = false;

  /// The request was shed by the service's admission controller before it
  /// reached a replica (failed is also set — rejection is an error response
  /// — but rejected distinguishes deliberate shedding from crash aborts).
  bool rejected = false;

  /// This visit is a hop of the trace's critical path. Stamped once, on the
  /// trace warehouse's copy, by mark_critical_path (trace/critical_path.h);
  /// false everywhere else. Sits in padding, so Span does not grow.
  bool on_critical_path = false;

  std::vector<ChildCall> children;

  /// Span response time as observed by the caller.
  SimTime duration() const { return departure - arrival; }

  /// Processing time PT_si: time attributable to this service itself
  /// (queueing + CPU), excluding time blocked on downstream services.
  SimTime processing_time() const { return duration() - downstream_wait; }
};

/// A completed request trace: the root span plus all descendants.
/// Spans are stored in creation order; spans[0] is the root. A deque rather
/// than a vector: opening a span must not invalidate references to spans a
/// service already holds (Tracer::span) while its visit is in flight.
struct Trace {
  TraceId id;
  int request_class = 0;
  SimTime start = 0;
  SimTime end = 0;
  std::deque<Span> spans;

  SimTime response_time() const { return end - start; }
  const Span& root() const { return spans.front(); }

  /// True when any hop of this request was shed by admission control (the
  /// end-user saw a rejection, not a served response).
  bool rejected() const {
    for (const Span& s : spans) {
      if (s.rejected) return true;
    }
    return false;
  }
};

}  // namespace sora
