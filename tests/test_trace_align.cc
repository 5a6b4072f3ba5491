// Differential span alignment: exactness on identical twins, attribution
// of injected slowdowns, and re-synchronization under span drop/insert —
// the structural drift the causal profiler must tolerate when a
// counterfactual run sheds or aborts requests the baseline completed.
#include "trace/align.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "trace/warehouse.h"

namespace sora {
namespace {

using testutil::SyntheticSpan;

// front(0) -> mid(1) -> leaf(2), root 0..1000.
Trace chain_trace(std::uint64_t id, SimTime leaf_extra = 0,
                  SimTime shift = 0) {
  return testutil::make_trace(
      {
          {-1, 0, shift + 0, shift + 1000 + leaf_extra, 800 + leaf_extra},
          {0, 1, shift + 100, shift + 900 + leaf_extra, 600 + leaf_extra},
          {1, 2, shift + 200, shift + 800 + leaf_extra, 0},
      },
      id);
}

TEST(AlignSpans, IdenticalTwinsAlignCompletely) {
  const Trace base = chain_trace(1);
  const Trace cf = chain_trace(1);
  std::vector<EdgeLatencyDelta> edges;
  const TraceAlignment a = align_spans(base, cf, edges);
  EXPECT_EQ(a.spans_aligned, 3u);
  EXPECT_EQ(a.base_unmatched, 0u);
  EXPECT_EQ(a.cf_unmatched, 0u);
  ASSERT_EQ(edges.size(), 3u);
  for (const EdgeLatencyDelta& e : edges) {
    EXPECT_EQ(e.aligned, 1u);
    EXPECT_EQ(e.base_duration, e.cf_duration);
    EXPECT_DOUBLE_EQ(e.mean_delta_ms(), 0.0);
  }
}

TEST(AlignSpans, SlowdownAttributedToTheRightEdge) {
  const Trace base = chain_trace(1);
  const Trace cf = chain_trace(1, /*leaf_extra=*/400);
  std::vector<EdgeLatencyDelta> edges;
  align_spans(base, cf, edges);
  // Every span got 400 longer end-to-end: front/mid absorbed the leaf's
  // slowdown as downstream wait.
  ASSERT_EQ(edges.size(), 3u);
  for (const EdgeLatencyDelta& e : edges) {
    EXPECT_EQ(e.cf_duration - e.base_duration, 400);
  }
  // The root edge's caller is the client (invalid service id).
  bool saw_client_edge = false;
  for (const EdgeLatencyDelta& e : edges) {
    if (!e.parent.valid()) {
      saw_client_edge = true;
      EXPECT_EQ(e.service, ServiceId(0));
    }
  }
  EXPECT_TRUE(saw_client_edge);
}

TEST(AlignSpans, TimeShiftedTwinHasZeroDeltas) {
  // A pure time shift (the counterfactual run served everything later but
  // no slower) must not register as an edge latency change.
  const Trace base = chain_trace(1);
  const Trace cf = chain_trace(1, /*leaf_extra=*/0, /*shift=*/5000);
  std::vector<EdgeLatencyDelta> edges;
  const TraceAlignment a = align_spans(base, cf, edges);
  EXPECT_EQ(a.spans_aligned, 3u);
  for (const EdgeLatencyDelta& e : edges) {
    EXPECT_DOUBLE_EQ(e.mean_delta_ms(), 0.0);
  }
}

TEST(AlignSpans, DroppedSpanResynchronizes) {
  const Trace base = chain_trace(1);
  // Counterfactual lost the mid span (service 1): front -> leaf remain.
  const Trace cf = testutil::make_trace(
      {
          {-1, 0, 0, 1000, 800},
          {0, 2, 200, 800, 0},
      },
      1);
  std::vector<EdgeLatencyDelta> edges;
  const TraceAlignment a = align_spans(base, cf, edges);
  EXPECT_EQ(a.spans_aligned, 2u);
  EXPECT_EQ(a.base_unmatched, 1u);  // the dropped mid span
  EXPECT_EQ(a.cf_unmatched, 0u);
  // leaf still aligned exactly despite the gap before it.
  for (const EdgeLatencyDelta& e : edges) {
    if (e.service == ServiceId(2)) {
      EXPECT_EQ(e.aligned, 1u);
    }
  }
}

TEST(AlignSpans, InsertedSpanCountedNotMisaligned) {
  const Trace base = chain_trace(1);
  // Counterfactual visited an extra service (9) between front and mid —
  // e.g. a retry path the baseline never took.
  const Trace cf = testutil::make_trace(
      {
          {-1, 0, 0, 1000, 800},
          {0, 9, 50, 80, 0},
          {0, 1, 100, 900, 600},
          {2, 2, 200, 800, 0},
      },
      1);
  std::vector<EdgeLatencyDelta> edges;
  const TraceAlignment a = align_spans(base, cf, edges);
  EXPECT_EQ(a.spans_aligned, 3u);
  EXPECT_EQ(a.base_unmatched, 0u);
  EXPECT_EQ(a.cf_unmatched, 1u);  // the inserted service-9 span
}

TEST(AlignSpans, SingleSpanTraces) {
  const Trace base = testutil::make_trace({{-1, 0, 0, 1000, 0}}, 1);
  const Trace cf = testutil::make_trace({{-1, 0, 0, 700, 0}}, 1);
  std::vector<EdgeLatencyDelta> edges;
  const TraceAlignment a = align_spans(base, cf, edges);
  EXPECT_EQ(a.spans_aligned, 1u);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].cf_duration - edges[0].base_duration, -300);
  EXPECT_LT(edges[0].mean_delta_ms(), 0.0);
}

TEST(DiffWarehouses, MatchesTwinsByTraceIdWithinWindow) {
  TraceWarehouse base(64), cf(64);
  base.store(chain_trace(1));                      // twin in cf
  base.store(chain_trace(2, /*leaf_extra=*/200));  // twin in cf, differs
  {
    // Starts outside [0, 2000]: must be ignored entirely.
    base.store(chain_trace(3, 0, /*shift=*/10000));
  }
  base.store(chain_trace(4));  // no cf twin
  cf.store(chain_trace(1));
  cf.store(chain_trace(2));
  cf.store(chain_trace(5));  // cf-only

  const DiffSummary d = diff_warehouses(base, cf, 0, 2000);
  EXPECT_EQ(d.traces_aligned, 2u);
  EXPECT_EQ(d.base_only, 1u);  // trace 4
  EXPECT_EQ(d.cf_only, 1u);    // trace 5
  EXPECT_EQ(d.spans_aligned, 6u);
  EXPECT_EQ(d.spans_unmatched, 0u);
  // Trace 2's baseline ran 200 *longer* than its counterfactual twin, so
  // the aggregate e2e delta (cf - base) is negative.
  EXPECT_LT(d.e2e_delta_ms, 0.0);
}

TEST(DiffWarehouses, EdgesSortedByAbsoluteDelta) {
  TraceWarehouse base(64), cf(64);
  base.store(chain_trace(1));
  cf.store(chain_trace(1, /*leaf_extra=*/300));
  const DiffSummary d = diff_warehouses(base, cf, 0, 2000);
  ASSERT_GE(d.edges.size(), 2u);
  for (std::size_t i = 1; i < d.edges.size(); ++i) {
    EXPECT_GE(std::abs(d.edges[i - 1].total_delta_ms()),
              std::abs(d.edges[i].total_delta_ms()));
  }
}

TEST(DiffWarehouses, EmptyWindowIsEmptySummary) {
  TraceWarehouse base(64), cf(64);
  base.store(chain_trace(1));
  cf.store(chain_trace(1));
  const DiffSummary d = diff_warehouses(base, cf, 50000, 60000);
  EXPECT_EQ(d.traces_aligned, 0u);
  EXPECT_EQ(d.base_only, 0u);
  EXPECT_EQ(d.cf_only, 0u);
  EXPECT_TRUE(d.edges.empty());
  EXPECT_DOUBLE_EQ(d.e2e_delta_ms, 0.0);
}

}  // namespace
}  // namespace sora
