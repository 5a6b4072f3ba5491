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
  Span& root = tracer.start_span(tid, nullptr, ServiceId(1), 3, 100);
  root.instance = InstanceId(7);
  EXPECT_EQ(tracer.open_traces(), 1u);
  tracer.finish_span(root, 500);

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
  Span& root = tracer.start_span(tid, nullptr, ServiceId(0), 0, 0);
  Span& child = tracer.start_span(tid, &root, ServiceId(1), 0, 10);
  tracer.finish_span(child, 60);
  root.children[0].returned = 60;
  root.downstream_wait = 50;
  const SpanId root_id = root.id;
  tracer.finish_span(root, 100);

  ASSERT_EQ(done.size(), 1u);
  const Trace& t = done.front();
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[0].processing_time(), 50);  // 100 - 50 downstream
  EXPECT_EQ(t.spans[1].duration(), 50);
  EXPECT_EQ(t.spans[1].parent, root_id);
  // start_span recorded the call on the parent, linked by position.
  ASSERT_EQ(t.spans[0].children.size(), 1u);
  const ChildCall& call = t.spans[0].children[0];
  EXPECT_EQ(call.child, 1u);
  EXPECT_EQ(call.parallel_group, 0);
  EXPECT_EQ(call.issued, 10);
  EXPECT_EQ(call.returned, 60);
  EXPECT_FALSE(call.async);
}

TEST(Tracer, SpanListenerFiresPerSpan) {
  Tracer tracer;
  std::vector<std::uint64_t> services;
  for (const ServiceId svc : {ServiceId(10), ServiceId(20)}) {
    tracer.add_span_listener(
        svc, [&](const Span& s) { services.push_back(s.service.value()); });
  }

  const TraceId tid = tracer.begin_trace(0, 0);
  Span& root = tracer.start_span(tid, nullptr, ServiceId(10), 0, 0);
  Span& child = tracer.start_span(tid, &root, ServiceId(20), 0, 5);
  tracer.finish_span(child, 50);
  tracer.finish_span(root, 90);

  // Child finishes before root; listener sees both in completion order.
  ASSERT_EQ(services.size(), 2u);
  EXPECT_EQ(services[0], 20u);
  EXPECT_EQ(services[1], 10u);
}

// A listener registered on one service sees exactly that service's spans,
// in the order they close, and none the interceptor drops; each service's
// listeners run in registration order.
TEST(Tracer, ServiceListenerSeesOnlyItsService) {
  Tracer tracer;
  std::vector<std::pair<int, SpanId>> seen;  // (listener, span)
  tracer.add_span_listener(ServiceId(1), [&](const Span& s) {
    EXPECT_EQ(s.service, ServiceId(1));
    seen.emplace_back(1, s.id);
  });
  tracer.add_span_listener(ServiceId(3), [&](const Span& s) {
    EXPECT_EQ(s.service, ServiceId(3));
    seen.emplace_back(3, s.id);
  });
  tracer.add_span_listener(ServiceId(1), [&](const Span& s) {
    seen.emplace_back(11, s.id);
  });
  // Drop every span that arrived at t=7.
  tracer.set_span_interceptor([](const Span& s) { return s.arrival != 7; });

  const TraceId tid = tracer.begin_trace(0, 0);
  Span& root = tracer.start_span(tid, nullptr, ServiceId(0), 0, 0);
  Span& a = tracer.start_span(tid, &root, ServiceId(1), 0, 1);
  Span& b = tracer.start_span(tid, &root, ServiceId(2), 0, 2);
  Span& c = tracer.start_span(tid, &root, ServiceId(3), 0, 3);
  Span& d = tracer.start_span(tid, &root, ServiceId(1), 0, 4);
  Span& dropped = tracer.start_span(tid, &root, ServiceId(1), 0, 7);
  Span& beyond = tracer.start_span(tid, &root, ServiceId(99), 0, 8);
  const SpanId a_id = a.id, c_id = c.id, d_id = d.id;
  tracer.finish_span(d, 10);
  tracer.finish_span(dropped, 11);
  tracer.finish_span(c, 12);
  tracer.finish_span(b, 13);
  tracer.finish_span(beyond, 14);
  tracer.finish_span(a, 15);
  tracer.finish_span(root, 20);

  const std::vector<std::pair<int, SpanId>> expected = {
      {1, d_id}, {11, d_id}, {3, c_id}, {1, a_id}, {11, a_id}};
  EXPECT_EQ(seen, expected);
}

TEST(Tracer, ConcurrentTraces) {
  Tracer tracer;
  int completed = 0;
  tracer.set_trace_sink([&](const Trace&) { ++completed; });

  const TraceId a = tracer.begin_trace(0, 0);
  const TraceId b = tracer.begin_trace(1, 10);
  Span& ra = tracer.start_span(a, nullptr, ServiceId(0), 0, 0);
  Span& rb = tracer.start_span(b, nullptr, ServiceId(0), 1, 10);
  EXPECT_EQ(tracer.open_traces(), 2u);
  tracer.finish_span(rb, 20);
  EXPECT_EQ(completed, 1);
  tracer.finish_span(ra, 30);
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(tracer.open_traces(), 0u);
}

// Opens a root with one async callback child, as a fire-and-forget edge
// does: the root departs first, the callback closes later.
struct AsyncTrace {
  TraceId tid;
  Span* root;
  Span* callback;
};
AsyncTrace open_async_trace(Tracer& tracer) {
  AsyncTrace a;
  a.tid = tracer.begin_trace(0, 0);
  a.root = &tracer.start_span(a.tid, nullptr, ServiceId(0), 0, 0);
  a.callback = &tracer.start_span(a.tid, a.root, ServiceId(1), 0, 20,
                                  /*parallel_group=*/-1, /*async=*/true);
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
  tracer.finish_span(tracer.start_span(plain, nullptr, ServiceId(0), 0, 0),
                     10);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(parked.empty());

  // A trace outliving its root goes to the hand-off, and reaches the sink
  // only when the hand-off's continuation delivers it.
  const AsyncTrace a = open_async_trace(tracer);
  tracer.finish_span(*a.root, 50);
  EXPECT_EQ(done.size(), 1u);
  tracer.finish_span(*a.callback, 90);
  EXPECT_EQ(done.size(), 1u);
  ASSERT_EQ(parked.size(), 1u);
  tracer.deliver_trace(parked.front());
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].id, plain);
  EXPECT_EQ(done[1].id, a.tid);
  EXPECT_EQ(done[1].end, 50);  // the root's departure, not the callback's
  ASSERT_EQ(done[1].spans.size(), 2u);
  ASSERT_EQ(done[1].root().children.size(), 1u);
  EXPECT_EQ(done[1].root().children[0].child, 1u);
  EXPECT_EQ(done[1].root().children[0].parallel_group, -1);
  EXPECT_TRUE(done[1].root().children[0].async);
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
  tracer.finish_span(*a.root, 50);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], "root 50");
  tracer.finish_span(*a.callback, 90);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1], "sink 2");
}

// A held root reference survives the open-trace map rehashing under 10k
// other traces and its own deque growing past 1000 children; every child
// link resolves to a span whose parent is the root. The span listener
// reports the closing span from inside the assembled trace: finish_span
// relies on a moved deque keeping its elements in place.
TEST(Tracer, SpanReferencesSurviveRehashAndGrowth) {
  Tracer tracer;
  std::vector<Trace> done;
  const Span* reported = nullptr;
  tracer.add_span_listener(ServiceId(0),
                           [&](const Span& s) { reported = &s; });
  tracer.set_trace_sink([&](const Trace& t) {
    if (t.spans.size() > 1) {
      EXPECT_EQ(reported, &t.root());  // the very span, not a relocated copy
    }
    done.push_back(t);
  });

  const TraceId tid = tracer.begin_trace(0, 0);
  Span& root = tracer.start_span(tid, nullptr, ServiceId(0), 0, 0);

  constexpr int kOthers = 10000;
  std::vector<Span*> others;
  for (int i = 0; i < kOthers; ++i) {
    const TraceId other = tracer.begin_trace(1, i);
    others.push_back(&tracer.start_span(other, nullptr, ServiceId(9), 1, i));
  }
  EXPECT_EQ(tracer.open_traces(), static_cast<std::size_t>(kOthers) + 1);
  for (Span* s : others) tracer.finish_span(*s, s->arrival + 1);
  EXPECT_EQ(done.size(), static_cast<std::size_t>(kOthers));

  constexpr int kChildren = 1200;
  std::vector<Span*> children;
  for (int i = 0; i < kChildren; ++i) {
    children.push_back(&tracer.start_span(tid, &root, ServiceId(1 + i % 5), 0,
                                          10 + i, /*parallel_group=*/i % 3));
  }
  for (int i = kChildren; i-- > 0;) {
    children[static_cast<std::size_t>(i)]->admitted = 11 + i;
    tracer.finish_span(*children[static_cast<std::size_t>(i)], 20 + i);
  }
  EXPECT_EQ(tracer.open_traces(), 1u);

  root.admitted = 5;
  root.downstream_wait = 4000;
  root.children.front().returned = 30;
  const SpanId root_id = root.id;
  tracer.finish_span(root, 5000);

  ASSERT_EQ(done.size(), static_cast<std::size_t>(kOthers) + 1);
  const Trace& t = done.back();
  EXPECT_EQ(t.id, tid);
  EXPECT_EQ(t.end, 5000);
  ASSERT_EQ(t.spans.size(), static_cast<std::size_t>(kChildren) + 1);
  EXPECT_EQ(t.root().id, root_id);
  EXPECT_EQ(t.root().admitted, 5);
  EXPECT_EQ(t.root().downstream_wait, 4000);
  EXPECT_EQ(t.root().departure, 5000);
  ASSERT_EQ(t.root().children.size(), static_cast<std::size_t>(kChildren));
  EXPECT_EQ(t.root().children.front().returned, 30);
  for (std::size_t i = 0; i < t.root().children.size(); ++i) {
    const ChildCall& call = t.root().children[i];
    ASSERT_LT(call.child, t.spans.size());
    const Span& child = t.spans[call.child];
    EXPECT_EQ(child.parent, root_id);
    EXPECT_EQ(call.parallel_group, static_cast<int>(i % 3));
    EXPECT_EQ(call.issued, child.arrival);
    EXPECT_EQ(child.admitted, child.arrival + 1);
    EXPECT_EQ(child.departure, child.arrival + 10);
  }
}

// When a trace outlives its root, the root hook sees the root's close and
// the last callback's close assembles the trace: the span listener must
// get that callback span as it sits in the trace handed off.
TEST(Tracer, DeferredAssemblyReportsTheClosingSpan) {
  Tracer tracer;
  std::vector<const Span*> reported;
  std::vector<SimTime> reported_departures;
  for (const ServiceId svc : {ServiceId(0), ServiceId(1), ServiceId(2)}) {
    tracer.add_span_listener(svc, [&](const Span& s) {
      reported.push_back(&s);
      reported_departures.push_back(s.departure);
    });
  }
  std::vector<SimTime> root_hook_ends;
  tracer.set_root_hook([&](const Trace& t) {
    root_hook_ends.push_back(t.end);
    EXPECT_EQ(t.root().departure, t.end);
  });
  std::vector<Trace> parked;
  tracer.set_deferred_delivery([&](Trace&& t) {
    ASSERT_FALSE(reported.empty());
    EXPECT_EQ(reported.back(), &t.spans.back());
    parked.push_back(std::move(t));
  });

  const AsyncTrace a = open_async_trace(tracer);
  Span& late = tracer.start_span(a.tid, a.root, ServiceId(2), 0, 25, -1, true);
  const SpanId callback_id = a.callback->id;
  const SpanId late_id = late.id;
  tracer.finish_span(*a.root, 50);
  ASSERT_EQ(root_hook_ends.size(), 1u);
  EXPECT_EQ(root_hook_ends[0], 50);
  tracer.finish_span(*a.callback, 90);
  EXPECT_TRUE(parked.empty());
  tracer.finish_span(late, 120);

  EXPECT_EQ(root_hook_ends.size(), 1u);  // the root closed once
  ASSERT_EQ(parked.size(), 1u);
  const Trace& t = parked.front();
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.spans[1].id, callback_id);
  EXPECT_EQ(t.spans[2].id, late_id);
  EXPECT_EQ(t.spans[2].departure, 120);
  EXPECT_EQ(reported_departures, (std::vector<SimTime>{50, 90, 120}));
  for (const ChildCall& call : t.root().children) {
    EXPECT_EQ(t.spans[call.child].parent, t.root().id);
  }
}

TEST(Tracer, SpanIdsAreUniqueAcrossTraces) {
  Tracer tracer;
  const TraceId a = tracer.begin_trace(0, 0);
  const TraceId b = tracer.begin_trace(0, 0);
  const SpanId s1 = tracer.start_span(a, nullptr, ServiceId(0), 0, 0).id;
  const SpanId s2 = tracer.start_span(b, nullptr, ServiceId(0), 0, 0).id;
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
