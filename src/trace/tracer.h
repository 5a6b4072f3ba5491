// In-process OpenTracing-style tracer.
//
// The paper instruments every microservice with a Jaeger/Zipkin-compatible
// agent and stores request/response timestamps per service. Here the tracer
// is an in-process collector: services open and close spans; when the last
// span of a trace closes, the assembled Trace goes to a single sink — the
// TraceWarehouse (TraceWarehouse::attach), whose store listeners are every
// per-trace consumer. Span listeners (metric samplers) see each visit as it
// closes, and one root hook sees the response the instant the root departs.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "trace/span.h"

namespace sora {

class Tracer {
 public:
  /// Receives each assembled trace exactly once.
  using TraceSink = std::function<void(const Trace&)>;
  /// Span listeners fire on every span completion (service visit), which is
  /// what the scatter samplers consume.
  using SpanListener = std::function<void(const Span&)>;
  /// The root hook fires the instant the ROOT span closes — the
  /// user-visible response time — even when async callback spans keep the
  /// trace open past it (assembly is then deferred until the last span
  /// closes). The trace passed in may still gain spans afterwards; the hook
  /// must read and return, not retain the reference or re-enter the tracer.
  using RootHook = std::function<void(const Trace&)>;
  /// Hand-off for deferred assembly: when the last span of a trace closes
  /// after the root already departed (async callbacks outliving the
  /// response), the raw trace is passed here instead of being processed
  /// inline. The hook must eventually call deliver_trace — the harness
  /// sends the hand-off across the network, one wire hop back to the
  /// collector. Without a hook, finish_span calls deliver_trace inline.
  using DeferredDelivery = std::function<void(Trace&&)>;

  /// What the span interceptor decided for one completed span's report.
  enum class SpanFate {
    kDeliver,  ///< fan out to span listeners now (the default path)
    kDrop,     ///< suppress the report entirely (lost agent message)
    kDefer,    ///< the interceptor retained a copy and will redeliver it
               ///< later via deliver_span (delayed agent message)
  };
  /// Gate on span-listener delivery, installed by the fault injector to
  /// model a lossy/laggy tracing agent. Trace assembly (the warehouse path)
  /// is unaffected: only the per-span metrics feed is filtered.
  using SpanInterceptor = std::function<SpanFate(const Span&)>;

  /// Start a new trace for a request of the given class. Returns its id.
  TraceId begin_trace(int request_class, SimTime now);

  /// Open a span under `trace`. `parent` is invalid for the root span.
  /// `arrival` is when the request message reached the service.
  SpanId start_span(TraceId trace, SpanId parent, ServiceId service,
                    InstanceId instance, int request_class, SimTime arrival);

  /// Mutable access to an open span (to stamp admitted/downstream_wait and
  /// append child calls). Must not be called after the span is finished.
  /// The returned reference stays valid while the trace is open (spans live
  /// in a deque).
  Span& span(TraceId trace, SpanId id);

  /// Close a span. When the last open span of a trace closes (the root
  /// itself on async-free traces), the trace is assembled, handed to the
  /// sink, and its storage is released. A root closing while async callback
  /// spans are still open only fires the root hook; assembly waits for the
  /// stragglers.
  void finish_span(TraceId trace, SpanId id, SimTime departure);

  /// Install (or clear, with nullptr) the completed-trace sink.
  void set_trace_sink(TraceSink fn) { trace_sink_ = std::move(fn); }
  /// Install (or clear, with nullptr) the root hook.
  void set_root_hook(RootHook fn) { root_hook_ = std::move(fn); }
  /// Install (or clear, with nullptr) the deferred-assembly hand-off.
  void set_deferred_delivery(DeferredDelivery fn) {
    deferred_delivery_ = std::move(fn);
  }
  /// Hand a trace whose spans have all closed to the sink. Called by
  /// finish_span for ordinary traces and by the deferred-delivery hook's
  /// continuation for traces that outlived their root.
  void deliver_trace(const Trace& t) {
    if (trace_sink_) trace_sink_(t);
  }
  void add_span_listener(SpanListener cb) {
    span_listeners_.push_back(std::move(cb));
  }
  /// Install (or clear, with nullptr) the span-report gate.
  void set_span_interceptor(SpanInterceptor fn) {
    span_interceptor_ = std::move(fn);
  }
  /// Deliver a span to the span listeners now — used to redeliver a copy
  /// the interceptor deferred. Safe after the owning trace closed.
  void deliver_span(const Span& s) {
    for (const auto& listener : span_listeners_) listener(s);
  }

  /// Number of traces currently in flight (diagnostics / leak checks).
  std::size_t open_traces() const { return open_.size(); }
  std::uint64_t traces_completed() const { return traces_completed_; }

 private:
  struct OpenTrace {
    Trace trace;
    std::size_t open_spans = 0;
    /// The root span departed; trace.end is final. Spans still open are
    /// async callbacks — when the last closes, the trace assembles.
    bool root_finished = false;
  };

  /// Find a span inside an open trace by id. Traces hold a handful of
  /// spans, so a backwards linear scan (most recently opened first) beats
  /// a per-trace hash index.
  static Span& find_span(OpenTrace& open, SpanId id);

  IdGenerator<TraceId> trace_ids_;
  IdGenerator<SpanId> span_ids_;
  std::unordered_map<std::uint64_t, OpenTrace> open_;
  TraceSink trace_sink_;
  RootHook root_hook_;
  SpanInterceptor span_interceptor_;
  DeferredDelivery deferred_delivery_;
  std::vector<SpanListener> span_listeners_;
  std::uint64_t traces_completed_ = 0;
};

}  // namespace sora
