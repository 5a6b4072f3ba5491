// Critical-path extraction from completed traces.
//
// The critical path of a call graph (footnote 1 of the paper) is the chain
// of maximal duration from the user request to the final response. We walk
// the span tree from the root, descending at each span into the child call
// of largest duration; sequential calls are all "dominant" in turn but the
// chain keeps the one contributing the most wall time.
//
// Each trace's path is walked once, when the trace warehouse stores it:
// mark_critical_path() stamps Span::on_critical_path on the warehouse's
// copy, and every consumer of stored traces (deadline propagation, the
// critical-service localizer, budget attribution) reads the marks. Because spans are stored
// parent-before-child, the marked spans in storage order are the path,
// root first.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "trace/span.h"

namespace sora {

/// One hop on the critical path.
struct CriticalHop {
  ServiceId service;
  SpanId span;
  SimTime processing_time = 0;  ///< PT of this hop (queue + CPU, no downstream)
  SimTime span_duration = 0;    ///< full visit duration at this hop
};

struct CriticalPath {
  std::vector<CriticalHop> hops;  ///< root first, deepest hop last.
  SimTime total_duration = 0;     ///< equals the root span's duration.

  bool contains(ServiceId s) const {
    for (const auto& h : hops) {
      if (h.service == s) return true;
    }
    return false;
  }
};

/// Returned by critical_child at the deepest hop.
inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

/// Position of the critical-path hop below the span at `index`: its
/// synchronous child of largest duration (the first listed wins a tie), or
/// kNoSpan at the deepest hop. Child links that do not point forward are
/// skipped, so the walk stays in bounds and always ends.
std::size_t critical_child(const Trace& trace, std::size_t index);

/// Walk the critical path of `trace` (marked or not), calling fn(const
/// Span&) for each hop, root first.
template <typename Fn>
void walk_critical_path(const Trace& trace, Fn&& fn) {
  if (trace.spans.empty()) return;
  for (std::size_t i = 0; i != kNoSpan; i = critical_child(trace, i)) {
    fn(trace.spans[i]);
  }
}

/// Extract the critical path of a completed trace.
CriticalPath extract_critical_path(const Trace& trace);

/// Stamp Span::on_critical_path on exactly the spans of the critical path
/// (clearing it everywhere else).
void mark_critical_path(Trace& trace);

/// Visit the hops of a marked trace, root first: fn(const Span&).
template <typename Fn>
void for_each_critical_hop(const Trace& trace, Fn&& fn) {
  for (const Span& s : trace.spans) {
    if (s.on_critical_path) fn(s);
  }
}

/// Sum of processing times of hops strictly above (upstream of) `service`
/// on the critical path; used by deadline propagation:
///   RTT_si <= SLA - sum_{k<i} PT_sk.
/// Returns -1 if the service does not appear on the path.
SimTime upstream_processing_time(const CriticalPath& path, ServiceId service);

/// The same sum read from the marks of a trace mark_critical_path stamped.
SimTime upstream_processing_time(const Trace& trace, ServiceId service);

}  // namespace sora
