// Tests for the in-process tracer and span lifecycle.
#include "trace/tracer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sora {
namespace {

TEST(Tracer, SingleSpanTrace) {
  Tracer tracer;
  std::vector<Trace> done;
  tracer.set_trace_sink([&](const Trace& t) { done.push_back(t); });

  const TraceId tid = tracer.begin_trace(3, 100);
  const SpanId root =
      tracer.start_span(tid, SpanId{}, ServiceId(1), InstanceId(7), 3, 100);
  EXPECT_EQ(tracer.open_traces(), 1u);
  tracer.finish_span(tid, root, 500);

  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(tracer.open_traces(), 0u);
  EXPECT_EQ(tracer.traces_completed(), 1u);
  const Trace& t = done.front();
  EXPECT_EQ(t.request_class, 3);
  EXPECT_EQ(t.start, 100);
  EXPECT_EQ(t.end, 500);
  EXPECT_EQ(t.response_time(), 400);
  ASSERT_EQ(t.spans.size(), 1u);
  EXPECT_EQ(t.root().service, ServiceId(1));
  EXPECT_EQ(t.root().instance, InstanceId(7));
  EXPECT_EQ(t.root().duration(), 400);
}

TEST(Tracer, NestedSpans) {
  Tracer tracer;
  std::vector<Trace> done;
  tracer.set_trace_sink([&](const Trace& t) { done.push_back(t); });

  const TraceId tid = tracer.begin_trace(0, 0);
  const SpanId root =
      tracer.start_span(tid, SpanId{}, ServiceId(0), InstanceId(0), 0, 0);
  const SpanId child =
      tracer.start_span(tid, root, ServiceId(1), InstanceId(1), 0, 10);
  tracer.span(tid, root).children.push_back(ChildCall{child, 0, 10, 0});
  tracer.finish_span(tid, child, 60);
  tracer.span(tid, root).children[0].returned = 60;
  tracer.span(tid, root).downstream_wait = 50;
  tracer.finish_span(tid, root, 100);

  ASSERT_EQ(done.size(), 1u);
  const Trace& t = done.front();
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[0].processing_time(), 50);  // 100 - 50 downstream
  EXPECT_EQ(t.spans[1].duration(), 50);
  EXPECT_EQ(t.spans[1].parent, root);
}

TEST(Tracer, SpanListenerFiresPerSpan) {
  Tracer tracer;
  std::vector<std::uint64_t> services;
  tracer.add_span_listener(
      [&](const Span& s) { services.push_back(s.service.value()); });

  const TraceId tid = tracer.begin_trace(0, 0);
  const SpanId root =
      tracer.start_span(tid, SpanId{}, ServiceId(10), InstanceId(0), 0, 0);
  const SpanId child =
      tracer.start_span(tid, root, ServiceId(20), InstanceId(0), 0, 5);
  tracer.finish_span(tid, child, 50);
  tracer.finish_span(tid, root, 90);

  // Child finishes before root; listener sees both in completion order.
  ASSERT_EQ(services.size(), 2u);
  EXPECT_EQ(services[0], 20u);
  EXPECT_EQ(services[1], 10u);
}

TEST(Tracer, ConcurrentTraces) {
  Tracer tracer;
  int completed = 0;
  tracer.set_trace_sink([&](const Trace&) { ++completed; });

  const TraceId a = tracer.begin_trace(0, 0);
  const TraceId b = tracer.begin_trace(1, 10);
  const SpanId ra =
      tracer.start_span(a, SpanId{}, ServiceId(0), InstanceId(0), 0, 0);
  const SpanId rb =
      tracer.start_span(b, SpanId{}, ServiceId(0), InstanceId(0), 1, 10);
  EXPECT_EQ(tracer.open_traces(), 2u);
  tracer.finish_span(b, rb, 20);
  EXPECT_EQ(completed, 1);
  tracer.finish_span(a, ra, 30);
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(tracer.open_traces(), 0u);
}

// Opens a root with one async callback child, as a fire-and-forget edge
// does: the root departs first, the callback closes later.
struct AsyncTrace {
  TraceId tid;
  SpanId root;
  SpanId callback;
};
AsyncTrace open_async_trace(Tracer& tracer) {
  AsyncTrace a;
  a.tid = tracer.begin_trace(0, 0);
  a.root =
      tracer.start_span(a.tid, SpanId{}, ServiceId(0), InstanceId(0), 0, 0);
  a.callback =
      tracer.start_span(a.tid, a.root, ServiceId(1), InstanceId(1), 0, 20);
  tracer.span(a.tid, a.root)
      .children.push_back(ChildCall{a.callback, -1, 20, 0, true});
  return a;
}

TEST(Tracer, SinkGetsEachTraceOnceIncludingDeferred) {
  Tracer tracer;
  std::vector<Trace> done;
  tracer.set_trace_sink([&](const Trace& t) { done.push_back(t); });
  std::vector<Trace> parked;
  tracer.set_deferred_delivery(
      [&](Trace&& t) { parked.push_back(std::move(t)); });

  // An ordinary trace is delivered inline, never through the hand-off.
  const TraceId plain = tracer.begin_trace(0, 0);
  const SpanId plain_root =
      tracer.start_span(plain, SpanId{}, ServiceId(0), InstanceId(0), 0, 0);
  tracer.finish_span(plain, plain_root, 10);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(parked.empty());

  // A trace outliving its root goes to the hand-off, and reaches the sink
  // only when the hand-off's continuation delivers it.
  const AsyncTrace a = open_async_trace(tracer);
  tracer.finish_span(a.tid, a.root, 50);
  EXPECT_EQ(done.size(), 1u);
  tracer.finish_span(a.tid, a.callback, 90);
  EXPECT_EQ(done.size(), 1u);
  ASSERT_EQ(parked.size(), 1u);
  tracer.deliver_trace(parked.front());
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].id, plain);
  EXPECT_EQ(done[1].id, a.tid);
  EXPECT_EQ(done[1].end, 50);  // the root's departure, not the callback's
  EXPECT_EQ(done[1].spans.size(), 2u);
  EXPECT_EQ(tracer.open_traces(), 0u);
  EXPECT_EQ(tracer.traces_completed(), 2u);
}

TEST(Tracer, RootHookFiresBeforeSinkForDeferredTrace) {
  Tracer tracer;
  std::vector<std::string> events;
  tracer.set_root_hook([&](const Trace& t) {
    events.push_back("root " + std::to_string(t.end));
  });
  tracer.set_trace_sink([&](const Trace& t) {
    events.push_back("sink " + std::to_string(t.spans.size()));
  });

  // No hand-off installed: the last span's close delivers inline.
  const AsyncTrace a = open_async_trace(tracer);
  tracer.finish_span(a.tid, a.root, 50);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], "root 50");
  tracer.finish_span(a.tid, a.callback, 90);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1], "sink 2");
}

TEST(Tracer, SpanIdsAreUniqueAcrossTraces) {
  Tracer tracer;
  const TraceId a = tracer.begin_trace(0, 0);
  const TraceId b = tracer.begin_trace(0, 0);
  const SpanId s1 =
      tracer.start_span(a, SpanId{}, ServiceId(0), InstanceId(0), 0, 0);
  const SpanId s2 =
      tracer.start_span(b, SpanId{}, ServiceId(0), InstanceId(0), 0, 0);
  EXPECT_NE(s1, s2);
}

TEST(Tracer, TraceIdsMonotone) {
  Tracer tracer;
  const TraceId a = tracer.begin_trace(0, 0);
  const TraceId b = tracer.begin_trace(0, 0);
  EXPECT_LT(a, b);
}

}  // namespace
}  // namespace sora
