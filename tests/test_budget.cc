// Tests for latency-budget attribution: per-hop deadline propagation on the
// critical path, windowed aggregation, and the CSV export.
#include "obs/budget.h"

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.h"

namespace sora {
namespace {

using testutil::make_trace;

// front(0..100, pt 20) -> mid(10..90, pt 20) -> leaf(20..80, pt 60).
Trace chain_trace(std::uint64_t id = 1) {
  return make_trace(
      {
          {-1, 0, 0, 100, 80},
          {0, 1, 10, 90, 60},
          {1, 2, 20, 80, 0},
      },
      id);
}

TEST(BudgetAttribution, DeadlinePropagatesDownCriticalPath) {
  const Trace t = chain_trace();
  const obs::TraceBudget b = obs::attribute_budget(t, /*sla=*/150);
  EXPECT_EQ(b.response, 100);
  EXPECT_TRUE(b.met_sla);
  ASSERT_EQ(b.hops.size(), 3u);

  // Hop 0 (front): full SLA, consumed PT 20.
  EXPECT_EQ(b.hops[0].service, ServiceId(0));
  EXPECT_EQ(b.hops[0].deadline, 150);
  EXPECT_EQ(b.hops[0].processing, 20);
  EXPECT_EQ(b.hops[0].slack, 150 - 100);  // deadline - span duration

  // Hop 1 (mid): SLA minus front's PT (Eq. 1-3).
  EXPECT_EQ(b.hops[1].deadline, 130);
  EXPECT_EQ(b.hops[1].slack, 130 - 80);

  // Hop 2 (leaf): SLA minus front+mid PT.
  EXPECT_EQ(b.hops[2].deadline, 110);
  EXPECT_EQ(b.hops[2].processing, 60);
  EXPECT_EQ(b.hops[2].slack, 110 - 60);

  const obs::HopBudget* top = b.top_consumer();
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->service, ServiceId(2));  // leaf ate the most budget
}

TEST(BudgetAttribution, MissedSlaGivesNegativeSlack) {
  const Trace t = chain_trace();
  const obs::TraceBudget b = obs::attribute_budget(t, /*sla=*/70);
  EXPECT_FALSE(b.met_sla);
  // front: deadline 70, duration 100 -> blew the budget.
  EXPECT_LT(b.hops[0].slack, 0);
}

TEST(BudgetAttributor, AggregatesIntoWindows) {
  obs::BudgetAttributor attr(/*sla=*/150, /*window=*/1000);
  // Two traces in window [0, 1000), one in [1000, 2000).
  Trace t1 = chain_trace(1);
  Trace t2 = chain_trace(2);
  Trace t3 = chain_trace(3);
  attr.on_budget(obs::attribute_budget(t1, 150), /*completed_at=*/100);
  attr.on_budget(obs::attribute_budget(t2, 150), /*completed_at=*/900);
  attr.on_budget(obs::attribute_budget(t3, 150), /*completed_at=*/1500);
  attr.flush(2000);

  EXPECT_EQ(attr.traces_attributed(), 3u);
  ASSERT_EQ(attr.timelines().size(), 3u);  // three services
  // Each service sink has two windows: [0,1000) stamped at 1000 with 2
  // traces, [1000,2000) stamped at 2000 with 1.
  for (const obs::TimeSeriesSink& sink : attr.timelines()) {
    ASSERT_EQ(sink.num_rows(), 2u);
    EXPECT_EQ(sink.row_time(0), 1000);
    EXPECT_DOUBLE_EQ(sink.value(0, 0), 2.0);  // traces
    EXPECT_EQ(sink.row_time(1), 2000);
    EXPECT_DOUBLE_EQ(sink.value(1, 0), 1.0);
  }
}

TEST(BudgetAttributor, TopConsumerIsLargestTotalPt) {
  obs::BudgetAttributor attr(/*sla=*/150, /*window=*/1000);
  attr.on_budget(obs::attribute_budget(chain_trace(), attr.sla()),
                 /*completed_at=*/100);
  attr.flush(1000);
  // Leaf (service-2) consumed PT 60 vs 20/20.
  EXPECT_EQ(attr.top_consumer(), "service-2");
  const auto totals = attr.consumption_ms();
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[0].first, "service-2");
  EXPECT_DOUBLE_EQ(totals[0].second, 0.06);  // 60us in ms
}

TEST(BudgetAttributor, NamerRendersServices) {
  obs::BudgetAttributor attr(150, 1000, [](ServiceId id) {
    return id == ServiceId(2) ? std::string("leaf") : std::string();
  });
  attr.on_budget(obs::attribute_budget(chain_trace(), attr.sla()),
                 /*completed_at=*/100);
  attr.flush(1000);
  EXPECT_EQ(attr.top_consumer(), "leaf");  // namer hit
}

TEST(BudgetAttributor, ViolationsCountBlownHops) {
  obs::BudgetAttributor attr(/*sla=*/70, /*window=*/1000);
  attr.on_budget(obs::attribute_budget(chain_trace(), attr.sla()),
                 /*completed_at=*/100);
  attr.flush(1000);
  // front's slack is negative under a 70us SLA.
  std::ostringstream os;
  attr.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("service,at_us,traces,mean_pt_ms"), std::string::npos);
  EXPECT_NE(csv.find("service-0"), std::string::npos);
  // At least one row reports a violation.
  bool violation = false;
  for (const obs::TimeSeriesSink& sink : attr.timelines()) {
    for (std::size_t r = 0; r < sink.num_rows(); ++r) {
      if (sink.value(r, 5) > 0) violation = true;
    }
  }
  EXPECT_TRUE(violation);
}

TEST(BudgetAttributor, TimeRangeFiltersConsumption) {
  obs::BudgetAttributor attr(150, 1000);
  attr.on_budget(obs::attribute_budget(chain_trace(1), 150), 100);
  attr.on_budget(obs::attribute_budget(chain_trace(2), 150), 1500);
  attr.flush(2000);
  // Only the first window (stamped at 1000).
  EXPECT_EQ(attr.top_consumer(0, 1000), "service-2");
  const auto first = attr.consumption_ms(0, 1000);
  const auto all = attr.consumption_ms();
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(all.empty());
  EXPECT_LT(first[0].second, all[0].second);
}

}  // namespace
}  // namespace sora
