#include "trace/tracer.h"

#include <cassert>

namespace sora {

TraceId Tracer::begin_trace(int request_class, SimTime now) {
  const TraceId id = trace_ids_.next();
  OpenTrace open;
  open.trace.id = id;
  open.trace.request_class = request_class;
  open.trace.start = now;
  open_.emplace(id.value(), std::move(open));
  return id;
}

Span& Tracer::start_span(TraceId trace, Span* parent, ServiceId service,
                         int request_class, SimTime arrival,
                         int parallel_group, bool async) {
  auto it = open_.find(trace.value());
  assert(it != open_.end() && "start_span on unknown trace");
  OpenTrace& open = it->second;
  auto& spans = open.trace.spans;

  Span& s = spans.emplace_back();
  s.id = span_ids_.next();
  s.trace = trace;
  s.service = service;
  s.request_class = request_class;
  s.arrival = arrival;
  s.admitted = arrival;
  s.departure = arrival;
  if (parent != nullptr) {
    s.parent = parent->id;
    parent->children.push_back(
        ChildCall{spans.size() - 1, parallel_group, arrival, 0, async});
  }
  ++open.open_spans;
  return s;
}

void Tracer::finish_span(Span& s, SimTime departure) {
  auto it = open_.find(s.trace.value());
  assert(it != open_.end() && "finish_span on unknown trace");
  OpenTrace& open = it->second;

  s.departure = departure;
  assert(open.open_spans > 0);
  --open.open_spans;

  const bool is_root = !s.parent.valid();
  if (is_root) {
    // The root's departure is the user-visible response time; async
    // callback spans running past it never move trace.end.
    open.trace.end = departure;
    open.root_finished = true;
  }

  if (!open.root_finished || open.open_spans > 0) {
    span_closed(s, is_root, open.trace);
    return;
  }

  // Last open span closed: assemble. Move the trace out before invoking
  // listeners so that re-entrant tracer use from a listener cannot
  // invalidate it.
  Trace done = std::move(open.trace);
  open_.erase(it);
  ++traces_completed_;

  // `s` still names the closing span, now inside `done`: moving a deque
  // hands its element blocks over without relocating any element.
  span_closed(s, is_root, done);
  if (!is_root && deferred_delivery_) {
    // The trace outlived its root (async callbacks): hand it off so the
    // harness can send it back to the collector over the network.
    deferred_delivery_(std::move(done));
    return;
  }
  deliver_trace(done);
}

void Tracer::add_span_listener(ServiceId service, SpanListener cb) {
  assert(service.valid());
  if (service.value() >= span_listeners_.size()) {
    span_listeners_.resize(service.value() + 1);
  }
  span_listeners_[service.value()].push_back(std::move(cb));
}

void Tracer::span_closed(const Span& s, bool is_root, const Trace& trace) {
  if (is_root && root_hook_) root_hook_(trace);
  if (span_interceptor_ && !span_interceptor_(s)) return;
  if (s.service.value() >= span_listeners_.size()) return;
  for (const auto& listener : span_listeners_[s.service.value()]) listener(s);
}

}  // namespace sora
