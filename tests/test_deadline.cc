// Tests for RT threshold propagation (Eq. 1-3 of the paper).
#include "core/deadline.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "test_util.h"
#include "trace/critical_path.h"

namespace sora {
namespace {

using testutil::SyntheticSpan;

// Chain 0 -> 1 -> 2 with PTs 20/20/60 (see test_critical_path).
Trace chain_trace(std::uint64_t id, SimTime shift = 0) {
  return testutil::make_trace(
      {
          {-1, 0, shift + 0, shift + 100, 80},
          {0, 1, shift + 10, shift + 90, 60},
          {1, 2, shift + 20, shift + 80, 0},
      },
      id);
}

// The synthetic traces use microsecond-scale timings; an SLA of a few
// milliseconds keeps SLA - upstream PT above the kMinDeadlineThreshold
// (1 ms) floor, so the arithmetic is visible.
constexpr SimTime kSla = msec(5);

TEST(Deadline, PropagatesSlaMinusUpstreamPt) {
  TraceWarehouse wh(100);
  wh.store(chain_trace(1));
  // Critical = service 2: upstream PT = 20 + 20 = 40.
  const DeadlineResult r =
      propagate_deadline(wh, 0, 1000, ServiceId(2), kSla);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.mean_upstream_pt, 40);
  EXPECT_EQ(r.rt_threshold, kSla - 40);
  EXPECT_EQ(r.traces_used, 1u);
}

TEST(Deadline, RootServiceGetsFullSla) {
  TraceWarehouse wh(100);
  wh.store(chain_trace(1));
  const DeadlineResult r =
      propagate_deadline(wh, 0, 1000, ServiceId(0), kSla);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.mean_upstream_pt, 0);
  EXPECT_EQ(r.rt_threshold, kSla);
}

TEST(Deadline, AveragesAcrossTraces) {
  TraceWarehouse wh(100);
  wh.store(chain_trace(1));
  // Second trace with doubled PTs: upstream for svc2 = 80.
  wh.store(testutil::make_trace(
      {
          {-1, 0, 200, 400, 160},
          {0, 1, 220, 380, 120},
          {1, 2, 240, 360, 0},
      },
      2));
  const DeadlineResult r =
      propagate_deadline(wh, 0, 1000, ServiceId(2), kSla);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.traces_used, 2u);
  EXPECT_EQ(r.mean_upstream_pt, 60);  // (40 + 80) / 2
  EXPECT_EQ(r.rt_threshold, kSla - 60);
}

TEST(Deadline, FloorsAtMinThreshold) {
  TraceWarehouse wh(100);
  wh.store(chain_trace(1));
  // SLA 30 < upstream 40 -> would be negative; floored.
  const DeadlineResult r =
      propagate_deadline(wh, 0, 1000, ServiceId(2), usec(30));
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.rt_threshold, kMinDeadlineThreshold);
}

TEST(Deadline, InvalidWhenServiceNotOnPath) {
  TraceWarehouse wh(100);
  wh.store(chain_trace(1));
  const DeadlineResult r =
      propagate_deadline(wh, 0, 1000, ServiceId(9), usec(500));
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.traces_used, 0u);
}

TEST(Deadline, WindowFiltersTraces) {
  TraceWarehouse wh(100);
  wh.store(chain_trace(1, 0));      // ends at 100
  wh.store(chain_trace(2, 10000));  // ends at 10100
  const DeadlineResult r =
      propagate_deadline(wh, 5000, 20000, ServiceId(2), usec(500));
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.traces_used, 1u);
}

// Propagation has no class filter: a trace of any request class counts.
TEST(Deadline, RequestClassFilter) {
  TraceWarehouse wh(100);
  Trace t = chain_trace(1);
  t.request_class = 2;
  wh.store(std::move(t));
  EXPECT_TRUE(propagate_deadline(wh, 0, 1000, ServiceId(2), kSla).valid);
}

// Property (Eq. 3): the propagated threshold never exceeds the SLA and
// decreases monotonically with upstream processing time.
TEST(Deadline, ThresholdMonotoneInUpstreamPt) {
  SimTime prev = kSimTimeNever;
  for (SimTime upstream_scale : {1, 2, 3, 4}) {
    TraceWarehouse wh(10);
    const SimTime pt = 20 * upstream_scale;
    wh.store(testutil::make_trace({
        {-1, 0, 0, 1000, 1000 - pt},        // root PT = pt
        {0, 1, pt / 2, 1000 - pt / 2, 0},   // leaf
    }));
    const DeadlineResult r =
        propagate_deadline(wh, 0, 2000, ServiceId(1), kSla);
    ASSERT_TRUE(r.valid);
    EXPECT_LE(r.rt_threshold, kSla);
    EXPECT_LT(r.rt_threshold, prev);
    prev = r.rt_threshold;
  }
}

// max_traces bounds the fold with deterministic systematic sampling: the
// sampled mean equals the full mean on a homogeneous window, reruns are
// byte-identical, and traces_used respects the bound.
TEST(Deadline, MaxTracesBoundsFoldDeterministically) {
  TraceWarehouse wh(1000);
  for (std::uint64_t i = 0; i < 100; ++i) {
    wh.store(chain_trace(i + 1, static_cast<SimTime>(i) * 10));
  }
  DeadlineOptions o;
  const DeadlineResult full =
      propagate_deadline(wh, 0, 100000, ServiceId(2), kSla, o);
  ASSERT_TRUE(full.valid);
  EXPECT_EQ(full.traces_used, 100u);

  o.max_traces = 8;
  const DeadlineResult sampled =
      propagate_deadline(wh, 0, 100000, ServiceId(2), kSla, o);
  ASSERT_TRUE(sampled.valid);
  EXPECT_LE(sampled.traces_used, 8u);
  EXPECT_GE(sampled.traces_used, 1u);
  // Identical traces => identical mean regardless of which were sampled.
  EXPECT_EQ(sampled.mean_upstream_pt, full.mean_upstream_pt);
  EXPECT_EQ(sampled.rt_threshold, full.rt_threshold);

  const DeadlineResult rerun =
      propagate_deadline(wh, 0, 100000, ServiceId(2), kSla, o);
  EXPECT_EQ(rerun.traces_used, sampled.traces_used);
  EXPECT_EQ(rerun.mean_upstream_pt, sampled.mean_upstream_pt);

  // A bound at or above the window folds everything.
  o.max_traces = 100;
  const DeadlineResult exact =
      propagate_deadline(wh, 0, 100000, ServiceId(2), kSla, o);
  EXPECT_EQ(exact.traces_used, 100u);
}

// Random span tree ending at `end`: parents precede children, random
// services, durations, downstream waits, parallel groups and async edges.
Trace random_trace(Rng& rng, std::uint64_t id, SimTime end) {
  const std::size_t n = 1 + rng.uniform_int(12);
  std::vector<SyntheticSpan> spans;
  spans.push_back(SyntheticSpan{-1, rng.uniform_int(6), end - 1000, end,
                                static_cast<SimTime>(rng.uniform_int(900))});
  for (std::size_t i = 1; i < n; ++i) {
    const SimTime arrival =
        end - 990 + static_cast<SimTime>(rng.uniform_int(400));
    const SimTime duration = 1 + static_cast<SimTime>(rng.uniform_int(500));
    spans.push_back(SyntheticSpan{
        static_cast<int>(rng.uniform_int(i)), rng.uniform_int(6), arrival,
        arrival + duration, static_cast<SimTime>(rng.uniform_int(
                                static_cast<std::uint64_t>(duration))),
        static_cast<int>(rng.uniform_int(3))});
  }
  Trace t = testutil::make_trace(spans, id);
  t.request_class = static_cast<int>(rng.uniform_int(2));
  for (Span& s : t.spans) {
    for (ChildCall& c : s.children) c.async = rng.uniform_int(5) == 0;
  }
  return t;
}

// The pre-marking algorithm: extract each window trace's path, sum the
// upstream PT over the hop list in double, same systematic sampling.
DeadlineResult oracle(const TraceWarehouse& wh, SimTime from, SimTime to,
                      ServiceId critical, SimTime sla,
                      const DeadlineOptions& o) {
  std::vector<const Trace*> window;
  wh.for_each_in_window(from, to,
                        [&](const Trace& t) { window.push_back(&t); });
  std::size_t stride = 1;
  if (o.max_traces > 0) {
    stride = std::max<std::size_t>(
        1, (window.size() + o.max_traces - 1) / o.max_traces);
  }
  DeadlineResult r;
  double sum = 0.0;
  for (std::size_t i = 0; i < window.size(); i += stride) {
    const SimTime up = upstream_processing_time(
        extract_critical_path(*window[i]), critical);
    if (up < 0) continue;
    sum += static_cast<double>(up);
    ++r.traces_used;
  }
  if (r.traces_used == 0) return r;
  r.mean_upstream_pt =
      static_cast<SimTime>(sum / static_cast<double>(r.traces_used));
  const SimTime floor = std::max(
      kMinDeadlineThreshold,
      static_cast<SimTime>(kMinDeadlineFractionOfSla *
                           static_cast<double>(sla)));
  r.rt_threshold = std::max(floor, sla - r.mean_upstream_pt);
  r.valid = true;
  return r;
}

// propagate_deadline reads the critical-path marks the warehouse stamped at
// store time, or a tracked service's upstream column; both must agree
// exactly with extracting every path afresh, over random windows (over
// traces of mixed classes, some stored out of end order), critical services,
// SLAs and every sampling bound — with eviction active, so part of the
// stored history is gone. The column is checked with the service tracked
// before any trace was stored and back-filled after all of them were.
TEST(Deadline, MarkedPathsMatchExtractionOracle) {
  Rng rng(2024);
  TraceWarehouse wh(400);
  TraceWarehouse tracked_before(400);
  TraceWarehouse tracked_after(400);
  for (std::uint64_t s = 0; s < 7; ++s) {
    tracked_before.track_upstream(ServiceId(s));
  }
  SimTime end = 2000;
  for (std::uint64_t id = 1; id <= 500; ++id) {
    end += 1 + static_cast<SimTime>(rng.uniform_int(50));
    // Every eighth trace or so is deferred: it ended before the last one.
    const SimTime trace_end =
        rng.uniform_int(8) == 0
            ? end - static_cast<SimTime>(rng.uniform_int(400))
            : end;
    const Trace t = random_trace(rng, id, trace_end);
    wh.store(t);
    tracked_before.store(t);
    tracked_after.store(t);
  }
  for (std::uint64_t s = 0; s < 7; ++s) {
    tracked_after.track_upstream(ServiceId(s));
  }
  ASSERT_EQ(wh.total_evicted(), 100u);
  ASSERT_EQ(wh.upstream_column(ServiceId(0)), nullptr);
  std::size_t compared = 0;
  for (int round = 0; round < 200; ++round) {
    const SimTime from = static_cast<SimTime>(rng.uniform_int(
        static_cast<std::uint64_t>(end)));
    const SimTime to =
        from + static_cast<SimTime>(rng.uniform_int(
                   static_cast<std::uint64_t>(end)));
    const ServiceId critical(rng.uniform_int(7));  // 6 = never on a path
    // 2-10 ms: some rounds land above the floors, some on them.
    const SimTime sla =
        usec(2000 + static_cast<SimTime>(rng.uniform_int(8000)));
    const std::size_t bounds[] = {0, 1, 7, 64};
    for (const std::size_t bound : bounds) {
      DeadlineOptions o;
      o.max_traces = bound;
      const DeadlineResult want = oracle(wh, from, to, critical, sla, o);
      for (const TraceWarehouse* w : {&wh, &tracked_before, &tracked_after}) {
        const DeadlineResult got =
            propagate_deadline(*w, from, to, critical, sla, o);
        const char* which = w == &wh              ? "marks"
                            : w == &tracked_before ? "tracked before"
                                                   : "tracked after";
        EXPECT_EQ(got.valid, want.valid)
            << which << ", round " << round << ", bound " << bound;
        EXPECT_EQ(got.traces_used, want.traces_used)
            << which << ", round " << round << ", bound " << bound;
        EXPECT_EQ(got.mean_upstream_pt, want.mean_upstream_pt)
            << which << ", round " << round << ", bound " << bound;
        EXPECT_EQ(got.rt_threshold, want.rt_threshold)
            << which << ", round " << round << ", bound " << bound;
      }
      if (want.valid) ++compared;
    }
  }
  EXPECT_GT(compared, 200u);  // most rounds exercised a non-empty fold
}

// A critical path that visits the deadline's service twice: the upstream PT
// is the sum above its first visit, from the marks and from the column.
TEST(Deadline, TrackedServiceVisitedTwiceCountsFirstHop) {
  // svc 0 (PT 100) -> svc 1 (PT 200) -> svc 2 (PT 200) -> svc 1 (PT 700).
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 1000, 900},
      {0, 1, 50, 950, 700},
      {1, 2, 100, 900, 600},
      {2, 1, 150, 850, 0},
  });
  TraceWarehouse marks(10);
  TraceWarehouse before(10);
  TraceWarehouse after(10);
  before.track_upstream(ServiceId(1));
  marks.store(t);
  before.store(t);
  after.store(t);
  after.track_upstream(ServiceId(1));
  for (const TraceWarehouse* w : {&marks, &before, &after}) {
    const DeadlineResult r =
        propagate_deadline(*w, 0, 2000, ServiceId(1), kSla);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.traces_used, 1u);
    EXPECT_EQ(r.mean_upstream_pt, 100);
    EXPECT_EQ(r.rt_threshold, kSla - 100);
  }
}

}  // namespace
}  // namespace sora
