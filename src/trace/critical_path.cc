#include "trace/critical_path.h"

namespace sora {

std::size_t critical_child(const Trace& trace, std::size_t index) {
  // Descend into the child visit of maximal duration: it dominates the
  // downstream wall time of this span. Async callback children are
  // fire-and-forget — the caller's response never waits on them — so they
  // can never sit on the critical path, however long they run.
  std::size_t next = kNoSpan;
  SimTime best = -1;
  for (const ChildCall& call : trace.spans[index].children) {
    if (call.async) continue;
    const std::size_t c = call.child;
    // A recorded child always sits after its caller; any other link comes
    // from a corrupt hand-built trace. Skipping it bounds the index and
    // makes every step of the walk move forward.
    if (c <= index || c >= trace.spans.size()) continue;
    const SimTime d = trace.spans[c].duration();
    if (d > best) {
      best = d;
      next = c;
    }
  }
  return next;
}

CriticalPath extract_critical_path(const Trace& trace) {
  CriticalPath path;
  if (trace.spans.empty()) return path;
  path.total_duration = trace.root().duration();
  walk_critical_path(trace, [&path](const Span& s) {
    path.hops.push_back(
        CriticalHop{s.service, s.id, s.processing_time(), s.duration()});
  });
  return path;
}

void mark_critical_path(Trace& trace) {
  for (Span& s : trace.spans) s.on_critical_path = false;
  if (trace.spans.empty()) return;
  for (std::size_t i = 0; i != kNoSpan; i = critical_child(trace, i)) {
    trace.spans[i].on_critical_path = true;
  }
}

SimTime upstream_processing_time(const CriticalPath& path, ServiceId service) {
  SimTime sum = 0;
  for (const auto& hop : path.hops) {
    if (hop.service == service) return sum;
    sum += hop.processing_time;
  }
  return -1;
}

SimTime upstream_processing_time(const Trace& trace, ServiceId service) {
  SimTime sum = 0;
  for (const Span& s : trace.spans) {
    if (!s.on_critical_path) continue;
    if (s.service == service) return sum;
    sum += s.processing_time();
  }
  return -1;
}

}  // namespace sora
