// Tests for client-side latency/goodput recording.
#include "metrics/latency_recorder.h"

#include <gtest/gtest.h>

namespace sora {
namespace {

TEST(LatencyRecorder, PercentilesExact) {
  Simulator sim;
  LatencyRecorder rec(sim, msec(100));
  for (int i = 1; i <= 100; ++i) rec.record(msec(i));
  EXPECT_EQ(rec.count(), 100u);
  // Percentiles come from the mergeable quantile sketch: exact up to the
  // sketch's 1% relative-error bound, not to machine precision.
  EXPECT_NEAR(rec.percentile_ms(50), 50.0, 50.0 * 0.011);
  EXPECT_NEAR(rec.percentile_ms(99), 99.0, 99.0 * 0.011);
  EXPECT_NEAR(rec.mean_ms(), 50.5, 0.01);
}

TEST(LatencyRecorder, EmptyIsZero) {
  Simulator sim;
  LatencyRecorder rec(sim, msec(100));
  EXPECT_TRUE(is_no_sample(rec.percentile_ms(99)));
  EXPECT_EQ(rec.mean_ms(), 0.0);
  EXPECT_DOUBLE_EQ(rec.average_goodput(), 0.0);
  EXPECT_DOUBLE_EQ(rec.good_fraction(), 0.0);
  // A shed request is not a served response: it never enters the mean.
  rec.record(msec(5), /*ok=*/false);
  EXPECT_EQ(rec.mean_ms(), 0.0);
}

// The mean is the microsecond sum over served requests divided by their
// count, truncated to whole microseconds before the millisecond
// conversion; negative response times count as zero.
TEST(LatencyRecorder, MeanTruncatesToWholeMicroseconds) {
  Simulator sim;
  LatencyRecorder rec(sim, msec(100));
  rec.record(msec(1) + 1);
  rec.record(msec(2));
  EXPECT_EQ(rec.mean_ms(), 1.5);  // 1500.5 us truncates to 1500 us

  LatencyRecorder clamped(sim, msec(100));
  clamped.record(-4);
  clamped.record(5);
  clamped.record(2000);
  EXPECT_EQ(clamped.mean_ms(), to_msec(668));  // 2005 / 3 = 668.33 us
}

TEST(LatencyRecorder, GoodputCountsWithinSla) {
  Simulator sim;
  LatencyRecorder rec(sim, msec(100));
  sim.schedule_at(sec(10), [&] {
    for (int i = 0; i < 60; ++i) rec.record(msec(50));   // good
    for (int i = 0; i < 40; ++i) rec.record(msec(200));  // bad
  });
  sim.run_all();
  EXPECT_DOUBLE_EQ(rec.good_fraction(), 0.6);
  // 60 good over 10 seconds elapsed.
  EXPECT_NEAR(rec.average_goodput(), 6.0, 0.01);
}

TEST(LatencyRecorder, SlaBoundaryInclusive) {
  Simulator sim;
  LatencyRecorder rec(sim, msec(100));
  sim.schedule_at(sec(1), [&] {
    rec.record(msec(100));
    rec.record(msec(100) + 1);
  });
  sim.run_all();
  EXPECT_DOUBLE_EQ(rec.good_fraction(), 0.5);
}

TEST(LatencyRecorder, TimelineBuckets) {
  Simulator sim;
  LatencyRecorder rec(sim, msec(100), sec(1));
  sim.schedule_at(msec(500), [&] { rec.record(msec(10)); });
  sim.schedule_at(msec(2500), [&] {
    rec.record(msec(20));
    rec.record(msec(300));
  });
  sim.run_all();
  const auto& tl = rec.timeline();
  ASSERT_EQ(tl.size(), 3u);
  EXPECT_EQ(tl[0].completed, 1u);
  EXPECT_EQ(tl[1].completed, 0u);
  EXPECT_EQ(tl[2].completed, 2u);
  EXPECT_EQ(tl[2].good, 1u);
  EXPECT_NEAR(tl[2].mean_rt_ms(), 160.0, 0.01);
  EXPECT_NEAR(tl[2].max_rt_ms(), 300.0, 0.01);
  EXPECT_EQ(tl[0].start, 0);
  EXPECT_EQ(tl[2].start, sec(2));
}

TEST(LatencyRecorder, DistributionHistogram) {
  Simulator sim;
  LatencyRecorder rec(sim, msec(100));
  rec.record(msec(5));
  rec.record(msec(15));
  rec.record(msec(15));
  const LinearHistogram h = rec.distribution_ms(10.0, 5);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
}

}  // namespace
}  // namespace sora
