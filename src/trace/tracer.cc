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

SpanId Tracer::start_span(TraceId trace, SpanId parent, ServiceId service,
                          InstanceId instance, int request_class,
                          SimTime arrival) {
  auto it = open_.find(trace.value());
  assert(it != open_.end() && "start_span on unknown trace");
  OpenTrace& open = it->second;

  const SpanId id = span_ids_.next();
  Span s;
  s.id = id;
  s.trace = trace;
  s.parent = parent;
  s.service = service;
  s.instance = instance;
  s.request_class = request_class;
  s.arrival = arrival;
  s.admitted = arrival;
  s.departure = arrival;
  open.trace.spans.push_back(std::move(s));
  ++open.open_spans;
  return id;
}

Span& Tracer::find_span(OpenTrace& open, SpanId id) {
  auto& spans = open.trace.spans;
  for (std::size_t i = spans.size(); i-- > 0;) {
    if (spans[i].id == id) return spans[i];
  }
  assert(false && "span lookup on unknown span");
  return spans.front();
}

Span& Tracer::span(TraceId trace, SpanId id) {
  auto it = open_.find(trace.value());
  assert(it != open_.end() && "span() on unknown trace");
  return find_span(it->second, id);
}

void Tracer::finish_span(TraceId trace, SpanId id, SimTime departure) {
  auto it = open_.find(trace.value());
  assert(it != open_.end() && "finish_span on unknown trace");
  OpenTrace& open = it->second;

  Span& s = find_span(open, id);
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
    if (is_root && root_hook_) root_hook_(open.trace);
    const SpanFate fate =
        span_interceptor_ ? span_interceptor_(s) : SpanFate::kDeliver;
    if (fate == SpanFate::kDeliver) {
      for (const auto& listener : span_listeners_) listener(s);
    }
    return;
  }

  // Last open span closed: assemble. Move the trace out before invoking
  // listeners so that re-entrant tracer use from a listener cannot
  // invalidate it.
  Trace done = std::move(open.trace);
  open_.erase(it);
  ++traces_completed_;

  // `s` moved with the trace; relocate the closing span for its report.
  Span* closing = nullptr;
  for (Span& sp : done.spans) {
    if (sp.id == id) {
      closing = &sp;
      break;
    }
  }
  assert(closing != nullptr);
  if (is_root && root_hook_) root_hook_(done);
  const SpanFate fate =
      span_interceptor_ ? span_interceptor_(*closing) : SpanFate::kDeliver;
  if (fate == SpanFate::kDeliver) {
    for (const auto& listener : span_listeners_) listener(*closing);
  }
  if (!is_root && deferred_delivery_) {
    // The trace outlived its root (async callbacks): hand it off so the
    // harness can send it back to the collector over the network.
    deferred_delivery_(std::move(done));
    return;
  }
  deliver_trace(done);
}

}  // namespace sora
