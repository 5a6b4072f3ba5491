// Tests for the trace warehouse.
#include "trace/warehouse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/sock_shop.h"
#include "harness/experiment.h"
#include "obs/profiler.h"
#include "test_util.h"
#include "topo/synth.h"
#include "trace/critical_path.h"

namespace sora {
namespace {

Trace trace_ending_at(SimTime end, std::uint64_t id) {
  return testutil::make_trace({{-1, 0, end - 100, end, 0}}, id);
}

TEST(TraceWarehouse, StoresAndCounts) {
  TraceWarehouse wh(10);
  wh.store(trace_ending_at(100, 1));
  wh.store(trace_ending_at(200, 2));
  wh.store(trace_ending_at(300, 3));
  EXPECT_EQ(wh.size(), 3u);
  EXPECT_EQ(wh.count_in_window(0, 1000), 3u);
  EXPECT_EQ(wh.count_in_window(150, 250), 1u);
  EXPECT_EQ(wh.count_in_window(301, 400), 0u);
  EXPECT_EQ(wh.total_stored(), 3u);
}

TEST(TraceWarehouse, WindowBoundariesInclusive) {
  TraceWarehouse wh(10);
  wh.store(trace_ending_at(100, 1));
  EXPECT_EQ(wh.count_in_window(100, 100), 1u);
}

TEST(TraceWarehouse, EvictsOldest) {
  TraceWarehouse wh(2);
  wh.store(trace_ending_at(100, 1));
  wh.store(trace_ending_at(200, 2));
  wh.store(trace_ending_at(300, 3));
  EXPECT_EQ(wh.size(), 2u);
  EXPECT_EQ(wh.total_evicted(), 1u);
  EXPECT_EQ(wh.count_in_window(0, 150), 0u);  // oldest gone
}

TEST(TraceWarehouse, VisitsOldestFirst) {
  TraceWarehouse wh(10);
  wh.store(trace_ending_at(300, 3));
  std::vector<SimTime> ends;
  wh.store(trace_ending_at(400, 4));
  wh.for_each_in_window(0, 1000,
                        [&](const Trace& t) { ends.push_back(t.end); });
  EXPECT_EQ(ends, (std::vector<SimTime>{300, 400}));
}

// A trace that outlives its root is stored one network hop after its last
// async span closes, but its end is the root's departure: it can arrive
// after a trace that ended later. A window query must still find it.
TEST(TraceWarehouse, WindowFindsTracesStoredOutOfEndOrder) {
  TraceWarehouse wh(10);
  wh.store(trace_ending_at(200, 1));
  wh.store(trace_ending_at(100, 2));
  EXPECT_EQ(wh.count_in_window(50, 150), 1u);
  std::vector<SimTime> ends;
  wh.for_each_in_window(0, 1000,
                        [&](const Trace& t) { ends.push_back(t.end); });
  EXPECT_EQ(ends, (std::vector<SimTime>{200, 100}));  // storage order
}

// Real traces from a synthesized fleet where half the deep mid services fire
// async callbacks: some arrive after a trace that ended later, and every
// window query still agrees with a brute-force count over the stored ends.
TEST(TraceWarehouse, WindowCountsMatchBruteForceUnderAsyncCallbacks) {
  topo::TopologyConfig tc;
  tc.seed = 3;
  tc.services = 100;
  tc.tenants = 2;
  tc.async_cycle_fraction = 0.5;
  const topo::Topology topo = topo::synthesize(tc);
  ExperimentConfig cfg;
  cfg.duration = sec(10);
  Experiment exp(topo.app, cfg);
  for (int tenant = 0; tenant < tc.tenants; ++tenant) {
    exp.open_loop(WorkloadTrace(TraceShape::kSteepTriPhase, cfg.duration,
                                40.0, 160.0),
                  topo.tenant_mix(tenant));
  }
  exp.run();
  std::vector<SimTime> ends;
  exp.warehouse().for_each_in_window(
      0, kSimTimeNever, [&ends](const Trace& t) { ends.push_back(t.end); });
  ASSERT_FALSE(ends.empty());
  EXPECT_FALSE(std::is_sorted(ends.begin(), ends.end()));
  for (SimTime to = msec(250); to <= cfg.duration; to += msec(250)) {
    const SimTime from = to - msec(500);
    const auto want = static_cast<std::size_t>(std::count_if(
        ends.begin(), ends.end(),
        [&](SimTime e) { return e >= from && e <= to; }));
    EXPECT_EQ(exp.warehouse().count_in_window(from, to), want) << to;
  }
}

TEST(TraceWarehouse, AttachToTracer) {
  Tracer tracer;
  TraceWarehouse wh(10);
  wh.attach(tracer);
  const TraceId tid = tracer.begin_trace(0, 0);
  tracer.finish_span(tracer.start_span(tid, nullptr, ServiceId(0), 0, 0), 50);
  EXPECT_EQ(wh.size(), 1u);
}

// The marked hops of a stored trace, in storage order.
std::vector<SpanId> marked_hops(const Trace& t) {
  std::vector<SpanId> ids;
  for_each_critical_hop(t, [&ids](const Span& s) { ids.push_back(s.id); });
  return ids;
}

std::vector<SpanId> extracted_hops(const Trace& t) {
  std::vector<SpanId> ids;
  for (const CriticalHop& h : extract_critical_path(t).hops) {
    ids.push_back(h.span);
  }
  return ids;
}

// root -> {svc 1 (fast), svc 2 (slow) -> svc 3}, ending at `end`.
Trace fanout_ending_at(SimTime end, std::uint64_t id) {
  return testutil::make_trace(
      {
          {-1, 0, end - 100, end, 90},
          {0, 1, end - 95, end - 80, 0, 0},
          {0, 2, end - 95, end - 10, 60, 0},
          {2, 3, end - 80, end - 20, 0},
      },
      id);
}

TEST(TraceWarehouse, StoredTracesAreMarked) {
  TraceWarehouse wh(10);
  Trace stale = fanout_ending_at(100, 1);
  for (Span& s : stale.spans) s.on_critical_path = true;  // stale marks
  wh.store(stale);
  wh.store(fanout_ending_at(200, 2));
  std::size_t seen = 0;
  wh.for_each_in_window(0, 1000, [&](const Trace& t) {
    ++seen;
    EXPECT_EQ(marked_hops(t), extracted_hops(t));
    EXPECT_EQ(marked_hops(t).size(), 3u);  // root, svc 2, svc 3
  });
  EXPECT_EQ(seen, 2u);
}

TEST(TraceWarehouse, StoreListenersSeeMarkedTraces) {
  TraceWarehouse wh(10);
  std::vector<SpanId> seen;
  wh.add_store_listener([&seen](const Trace& t) { seen = marked_hops(t); });
  const Trace t = fanout_ending_at(100, 1);
  wh.store(t);
  EXPECT_EQ(seen, extracted_hops(t));
}

TEST(TraceWarehouse, EvictionKeepsRemainingMarks) {
  TraceWarehouse wh(2);
  wh.store(fanout_ending_at(100, 1));
  wh.store(trace_ending_at(200, 2));
  wh.store(fanout_ending_at(300, 3));
  wh.store(fanout_ending_at(400, 4));
  EXPECT_EQ(wh.total_evicted(), 2u);
  std::vector<SimTime> ends;
  wh.for_each_in_window(0, 1000, [&](const Trace& t) {
    ends.push_back(t.end);
    EXPECT_EQ(marked_hops(t), extracted_hops(t));
    EXPECT_EQ(upstream_processing_time(t, ServiceId(3)),
              upstream_processing_time(extract_critical_path(t), ServiceId(3)));
  });
  EXPECT_EQ(ends, (std::vector<SimTime>{300, 400}));
}

// The critical path of every stored trace is extracted exactly once, at
// store time: over a one-minute Figure-10 cart run with FIRM and Sora both
// localizing and Sora propagating deadlines every round, the experiment's
// `trace.critical_path` count equals the traces stored.
TEST(TraceWarehouse, OneCriticalPathExtractionPerStoredTrace) {
  sock_shop::Params params;
  params.cart_cores = 2.0;
  params.cart_threads = 5;
  ExperimentConfig cfg;
  cfg.duration = minutes(1);
  cfg.sla = msec(400);
  cfg.seed = 42;
  Experiment exp(sock_shop::make_sock_shop(params), cfg);
  exp.closed_loop(600, sec(1), RequestMix(sock_shop::kBrowse))
      .follow_trace(
          WorkloadTrace(TraceShape::kSteepTriPhase, cfg.duration, 600, 2400));
  FirmOptions fo;
  fo.slo_latency = cfg.sla;
  fo.min_cores = 2.0;
  fo.max_cores = 4.0;
  auto& firm = exp.add_firm(fo);
  firm.manage(exp.app().service("cart"));
  SoraFrameworkOptions so;
  so.sla = cfg.sla;
  auto& fw = exp.add_sora(so);
  fw.manage(ResourceKnob::entry(exp.app().service("cart")));
  Experiment::link(firm, fw);
  exp.run();

  ASSERT_GT(exp.warehouse().total_stored(), 1000u);
  std::uint64_t cp_calls = 0;
  std::uint64_t deadline_calls = 0;
  for (const obs::StageStats& s : exp.summary().controller_overhead) {
    if (s.stage == "trace.critical_path") cp_calls = s.calls;
    if (s.stage == "sora.deadline_prop") deadline_calls = s.calls;
  }
  EXPECT_EQ(cp_calls, exp.warehouse().total_stored());
  EXPECT_GT(deadline_calls, 0u);  // deadline propagation did run
}

}  // namespace
}  // namespace sora
