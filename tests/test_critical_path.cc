// Tests for critical-path extraction and upstream processing-time sums.
#include "trace/critical_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "harness/experiment.h"
#include "test_util.h"
#include "topo/synth.h"

namespace sora {
namespace {

using testutil::SyntheticSpan;

// Span with every field but on_critical_path: the mark must live in the
// padding after `rejected`, so adding it may not grow the span.
struct SpanWithoutMark {
  SpanId id;
  TraceId trace;
  SpanId parent;
  ServiceId service;
  InstanceId instance;
  int request_class = 0;
  SimTime arrival = 0;
  SimTime admitted = 0;
  SimTime departure = 0;
  SimTime downstream_wait = 0;
  bool failed = false;
  bool rejected = false;
  std::vector<ChildCall> children;
};
static_assert(sizeof(Span) == sizeof(SpanWithoutMark),
              "Span::on_critical_path must not grow Span");
static_assert(sizeof(void*) != 8 || sizeof(Span) == 112,
              "Span is 112 bytes on 64-bit targets");

// Marks a copy of `t` and checks the marked hops, read in storage order, are
// exactly the hops extract_critical_path returns, in the same order, and
// that both upstream_processing_time overloads agree for every service.
void expect_marks_match_extraction(const Trace& t) {
  const CriticalPath cp = extract_critical_path(t);
  Trace marked = t;
  mark_critical_path(marked);
  std::vector<CriticalHop> hops;
  for_each_critical_hop(marked, [&hops](const Span& s) {
    hops.push_back(
        CriticalHop{s.service, s.id, s.processing_time(), s.duration()});
  });
  ASSERT_EQ(hops.size(), cp.hops.size());
  for (std::size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i].span, cp.hops[i].span) << "hop " << i;
    EXPECT_EQ(hops[i].service, cp.hops[i].service) << "hop " << i;
    EXPECT_EQ(hops[i].processing_time, cp.hops[i].processing_time);
    EXPECT_EQ(hops[i].span_duration, cp.hops[i].span_duration);
  }
  std::vector<ServiceId> services{ServiceId(1u << 30)};  // never on a path
  for (const Span& s : t.spans) services.push_back(s.service);
  for (ServiceId s : services) {
    EXPECT_EQ(upstream_processing_time(marked, s),
              upstream_processing_time(cp, s))
        << "service " << s.value();
  }
}

// Renumber span ids in descending storage order (parents keep preceding
// their children, but ids now run backwards), rewiring every parent id.
// Child links are positions, so they need no rewiring.
void reverse_span_ids(Trace& t) {
  std::map<std::uint64_t, std::uint64_t> remap;
  const std::uint64_t top = 100000 + t.spans.size();
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    remap[t.spans[i].id.value()] = top - i;
  }
  for (Span& s : t.spans) {
    s.id = SpanId(remap.at(s.id.value()));
    if (s.parent.valid()) s.parent = SpanId(remap.at(s.parent.value()));
  }
}

TEST(CriticalPath, SingleSpan) {
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 1000, 0},
  });
  const CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 1u);
  EXPECT_EQ(cp.total_duration, 1000);
  EXPECT_EQ(cp.hops[0].service, ServiceId(0));
  EXPECT_EQ(cp.hops[0].processing_time, 1000);
}

TEST(CriticalPath, Chain) {
  // front(0..100) -> mid(10..90) -> leaf(20..80)
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},
      {0, 1, 10, 90, 60},
      {1, 2, 20, 80, 0},
  });
  const CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 3u);
  EXPECT_EQ(cp.hops[0].service, ServiceId(0));
  EXPECT_EQ(cp.hops[1].service, ServiceId(1));
  EXPECT_EQ(cp.hops[2].service, ServiceId(2));
  EXPECT_EQ(cp.hops[0].processing_time, 20);  // 100 - 80
  EXPECT_EQ(cp.hops[1].processing_time, 20);  // 80 - 60
  EXPECT_EQ(cp.hops[2].processing_time, 60);
  EXPECT_EQ(cp.total_duration, 100);
  EXPECT_TRUE(cp.contains(ServiceId(1)));
  EXPECT_FALSE(cp.contains(ServiceId(9)));
}

TEST(CriticalPath, ParallelFanoutPicksSlowerChild) {
  // root fans out to services 1 (10..40) and 2 (10..90): 2 dominates.
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},
      {0, 1, 10, 40, 0, 0},
      {0, 2, 10, 90, 0, 0},
  });
  const CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 2u);
  EXPECT_EQ(cp.hops[1].service, ServiceId(2));
}

TEST(CriticalPath, SequentialCallsPickLongest) {
  // Two sequential children: the chain descends into the longer one
  // ("path of maximal duration").
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 200, 150},
      {0, 1, 10, 60, 0, 0},    // 50us
      {0, 2, 70, 170, 0, 1},   // 100us
  });
  const CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 2u);
  EXPECT_EQ(cp.hops[1].service, ServiceId(2));
}

TEST(CriticalPath, DeepTree) {
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 1000, 900},
      {0, 1, 50, 900, 700},   // on path
      {0, 2, 50, 300, 0},     // parallel loser
      {1, 3, 100, 750, 0},    // deepest hop
  });
  const CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 3u);
  EXPECT_EQ(cp.hops[2].service, ServiceId(3));
  EXPECT_EQ(cp.hops[2].processing_time, 650);
}

TEST(CriticalPath, EmptyTrace) {
  Trace t;
  const CriticalPath cp = extract_critical_path(t);
  EXPECT_TRUE(cp.hops.empty());
  EXPECT_EQ(cp.total_duration, 0);
}

TEST(UpstreamProcessingTime, SumsHopsAboveService) {
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},   // PT 20
      {0, 1, 10, 90, 60},    // PT 20
      {1, 2, 20, 80, 0},     // PT 60
  });
  const CriticalPath cp = extract_critical_path(t);
  EXPECT_EQ(upstream_processing_time(cp, ServiceId(0)), 0);
  EXPECT_EQ(upstream_processing_time(cp, ServiceId(1)), 20);
  EXPECT_EQ(upstream_processing_time(cp, ServiceId(2)), 40);
  EXPECT_EQ(upstream_processing_time(cp, ServiceId(9)), -1);
}

// Degenerate input: two children with exactly tied durations. The descent
// uses a strict comparison, so the first child in call order wins — the
// choice must be deterministic (profile output is compared byte-for-byte).
TEST(CriticalPath, TiedChildDurationsPickFirstDeterministically) {
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},
      {0, 1, 10, 90, 0, 0},
      {0, 2, 10, 90, 0, 0},  // same duration as service 1
  });
  const CriticalPath a = extract_critical_path(t);
  const CriticalPath b = extract_critical_path(t);
  ASSERT_EQ(a.hops.size(), 2u);
  EXPECT_EQ(a.hops[1].service, ServiceId(1));  // first call order wins
  ASSERT_EQ(b.hops.size(), a.hops.size());
  EXPECT_EQ(b.hops[1].service, a.hops[1].service);
}

// Degenerate input: a parent's child link points past the end of the span
// list (a hand-built or truncated trace). The walk must skip the link, not
// read out of bounds.
TEST(CriticalPath, DanglingChildReferenceIsSkipped) {
  Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},
      {0, 1, 10, 90, 60},
      {1, 2, 20, 80, 0},
  });
  t.spans[0].children[0].child = t.spans.size();  // the root's link to mid
  const CriticalPath cp = extract_critical_path(t);
  ASSERT_EQ(cp.hops.size(), 1u);  // walk stops at the bad link
  EXPECT_EQ(cp.hops[0].service, ServiceId(0));
  EXPECT_EQ(cp.total_duration, 100);
  expect_marks_match_extraction(t);
}

// Degenerate input: a link in the middle of a deep chain points backwards
// (at the root, or at its own span). Following it would loop forever; the
// walk keeps the prefix above the bad link and stops.
TEST(CriticalPath, GapTruncatesPathNotWholeTrace) {
  for (const std::size_t target : {std::size_t{0}, std::size_t{1}}) {
    Trace t = testutil::make_trace({
        {-1, 0, 0, 500, 430},
        {0, 1, 20, 450, 350},
        {1, 2, 50, 400, 270},
        {2, 3, 80, 350, 0},
    });
    t.spans[1].children[0].child = target;  // service 1's link to service 2
    const CriticalPath cp = extract_critical_path(t);
    ASSERT_EQ(cp.hops.size(), 2u) << "target " << target;
    EXPECT_EQ(cp.hops[0].service, ServiceId(0));
    EXPECT_EQ(cp.hops[1].service, ServiceId(1));
    EXPECT_FALSE(cp.contains(ServiceId(2)));
    EXPECT_FALSE(cp.contains(ServiceId(3)));
    expect_marks_match_extraction(t);
  }
}

// Property: PT of all hops never exceeds the total duration, and the hop
// list follows parent-child order.
TEST(CriticalPath, ProcessingTimeBoundedByDuration) {
  // Consistent chain: every span's downstream_wait equals its child's
  // duration (as the instrumentation records for serial calls).
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 500, 430},
      {0, 1, 20, 450, 350},
      {1, 2, 50, 400, 270},
      {2, 3, 80, 350, 0},
  });
  const CriticalPath cp = extract_critical_path(t);
  SimTime pt_sum = 0;
  for (const auto& hop : cp.hops) {
    EXPECT_GE(hop.processing_time, 0);
    EXPECT_LE(hop.processing_time, hop.span_duration);
    pt_sum += hop.processing_time;
  }
  EXPECT_LE(pt_sum, cp.total_duration);
}

TEST(CriticalPathMarks, LinearChain) {
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 500, 430},
      {0, 1, 20, 450, 350},
      {1, 2, 50, 400, 270},
      {2, 3, 80, 350, 0},
  });
  expect_marks_match_extraction(t);
  Trace marked = t;
  mark_critical_path(marked);
  for (const Span& s : marked.spans) EXPECT_TRUE(s.on_critical_path);
}

TEST(CriticalPathMarks, DurationTieFirstListedChildWins) {
  const Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},
      {0, 1, 10, 90, 0, 0},
      {0, 2, 10, 90, 0, 0},
  });
  expect_marks_match_extraction(t);
  Trace marked = t;
  mark_critical_path(marked);
  EXPECT_TRUE(marked.spans[1].on_critical_path);
  EXPECT_FALSE(marked.spans[2].on_critical_path);
}

TEST(CriticalPathMarks, AsyncChildIsNeverTaken) {
  // The async callback (service 2) outlives every synchronous child, yet
  // the caller never waits on it.
  Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 50},
      {0, 1, 10, 60, 0, 0},
      {0, 2, 90, 900, 0, -1},
  });
  t.spans[0].children[1].async = true;
  expect_marks_match_extraction(t);
  Trace marked = t;
  mark_critical_path(marked);
  EXPECT_TRUE(marked.spans[1].on_critical_path);
  EXPECT_FALSE(marked.spans[2].on_critical_path);
}

TEST(CriticalPathMarks, MissingChildSpanTruncatesPath) {
  Trace t = testutil::make_trace({
      {-1, 0, 0, 500, 430},
      {0, 1, 20, 450, 350},
      {1, 2, 50, 400, 270},
      {2, 3, 80, 350, 0},
      {0, 4, 20, 100, 0},
  });
  // The root's link to its longest child points back at the root itself.
  t.spans[0].children[0].child = 0;
  expect_marks_match_extraction(t);
  Trace marked = t;
  mark_critical_path(marked);
  // The path falls back to the root's other child.
  EXPECT_EQ(extract_critical_path(t).hops.size(), 2u);
  EXPECT_FALSE(marked.spans[1].on_critical_path);
  EXPECT_TRUE(marked.spans.back().on_critical_path);
}

// Child links are positions, so span ids play no part in the walk: ids
// running backwards give the same path.
TEST(CriticalPathMarks, OutOfOrderSpanIdsUseTheFallbackScan) {
  Trace t = testutil::make_trace({
      {-1, 0, 0, 1000, 900},
      {0, 1, 50, 900, 700},
      {0, 2, 50, 300, 0},
      {1, 3, 100, 750, 600},
      {3, 4, 120, 700, 0},
      {1, 5, 100, 200, 0},
  });
  const CriticalPath before = extract_critical_path(t);
  reverse_span_ids(t);
  const CriticalPath after = extract_critical_path(t);
  ASSERT_EQ(after.hops.size(), before.hops.size());
  for (std::size_t i = 0; i < after.hops.size(); ++i) {
    EXPECT_EQ(after.hops[i].service, before.hops[i].service);
  }
  expect_marks_match_extraction(t);
}

TEST(CriticalPathMarks, RemarkingClearsStaleMarks) {
  Trace t = testutil::make_trace({
      {-1, 0, 0, 100, 80},
      {0, 1, 10, 40, 0, 0},
      {0, 2, 10, 90, 0, 0},
  });
  for (Span& s : t.spans) s.on_critical_path = true;
  mark_critical_path(t);
  EXPECT_TRUE(t.spans[0].on_critical_path);
  EXPECT_FALSE(t.spans[1].on_critical_path);
  EXPECT_TRUE(t.spans[2].on_critical_path);
}

TEST(CriticalPathMarks, EmptyTraceHasNoHops) {
  Trace t;
  mark_critical_path(t);
  std::size_t hops = 0;
  for_each_critical_hop(t, [&hops](const Span&) { ++hops; });
  EXPECT_EQ(hops, 0u);
  EXPECT_EQ(upstream_processing_time(t, ServiceId(0)), -1);
}

// Real traces from a synthesized 1000-service fleet: deep, wide span trees
// with async callbacks, recorded by the tracer.
TEST(CriticalPathMarks, SynthesizedThousandServiceTopologyTraces) {
  topo::TopologyConfig cfg;
  cfg.seed = 1;
  cfg.services = 1000;
  const topo::Topology topo = topo::synthesize(cfg);
  ExperimentConfig ecfg;
  ecfg.duration = sec(3);
  ecfg.seed = 7;
  ecfg.sla = topo.config.request_sla;
  Experiment exp(topo.app, ecfg);
  for (int tenant = 0; tenant < cfg.tenants; ++tenant) {
    exp.open_loop(
        WorkloadTrace(TraceShape::kSlowlyVarying, ecfg.duration, 5.0, 10.0),
        topo.tenant_mix(tenant));
  }
  std::vector<Trace> traces;
  exp.warehouse().add_store_listener(
      [&traces](const Trace& t) { traces.push_back(t); });
  exp.run();
  ASSERT_GT(traces.size(), 10u);
  std::size_t max_spans = 0;
  std::size_t max_hops = 0;
  for (const Trace& t : traces) {
    max_spans = std::max(max_spans, t.spans.size());
    max_hops = std::max(max_hops, extract_critical_path(t).hops.size());
    expect_marks_match_extraction(t);
  }
  EXPECT_GT(max_spans, 20u);
  EXPECT_GT(max_hops, 3u);
  // The warehouse's copies carry the same marks.
  std::size_t stored = 0;
  exp.warehouse().for_each_in_window(0, kSimTimeNever, [&](const Trace& t) {
    ++stored;
    const CriticalPath cp = extract_critical_path(t);
    std::size_t i = 0;
    for_each_critical_hop(t, [&](const Span& s) {
      ASSERT_LT(i, cp.hops.size());
      EXPECT_EQ(s.id, cp.hops[i++].span);
    });
    EXPECT_EQ(i, cp.hops.size());
  });
  EXPECT_EQ(stored, exp.warehouse().size());
}

}  // namespace
}  // namespace sora
