// Tests for the fine-grained concurrency/goodput sampler.
#include "metrics/scatter_sampler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "svc/application.h"
#include "test_util.h"
#include "trace/tracer.h"

namespace sora {
namespace {

struct Fixture {
  Simulator sim;
  Tracer tracer;
  Application app;
  explicit Fixture(ApplicationConfig cfg)
      : app(sim, tracer, std::move(cfg), 1) {}

  void drive(int per_second, SimTime duration) {
    // Deterministic arrivals, starting from the current sim time so a
    // second drive() after run_until() does not schedule in the past.
    const SimTime gap = sec(1) / per_second;
    const SimTime base = sim.now();
    for (SimTime t = 0; t < duration; t += gap) {
      sim.schedule_at(base + t, [this] { app.inject(0, [](SimTime) {}); });
    }
  }
};

TEST(ScatterSampler, CountsThroughputPerBucket) {
  Fixture f(testutil::single_service(4.0, 8, 1000, 0, 0.0));
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  ScatterSampler sampler(f.sim, f.tracer, knob, msec(100), msec(50));
  sampler.start();
  f.drive(100, sec(2));
  f.sim.run_until(sec(2));
  const auto pts = sampler.points();
  ASSERT_GE(pts.size(), 19u);
  for (std::size_t i = 0; i < 19; ++i) {
    EXPECT_NEAR(pts[i].throughput, 100.0, 11.0) << i;
    EXPECT_NEAR(pts[i].goodput, 100.0, 11.0) << i;  // rt 1ms << 50ms
    EXPECT_EQ(pts[i].capacity, 8.0);
  }
}

TEST(ScatterSampler, ThresholdSplitsGoodput) {
  // Service rt = 10ms deterministic; threshold 5ms -> goodput 0.
  Fixture f(testutil::single_service(4.0, 8, 10000, 0, 0.0));
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  ScatterSampler sampler(f.sim, f.tracer, knob, msec(100), msec(5));
  sampler.start();
  f.drive(50, sec(1));
  f.sim.run_until(sec(2));
  for (const auto& p : sampler.points()) {
    EXPECT_DOUBLE_EQ(p.goodput, 0.0);
  }
  // Raise the threshold at runtime: goodput reappears.
  sampler.set_rt_threshold(msec(50));
  f.drive(50, sec(1));
  f.sim.run_until(sec(4));
  bool any_good = false;
  for (const auto& p : sampler.points()) {
    if (p.goodput > 0) any_good = true;
  }
  EXPECT_TRUE(any_good);
}

TEST(ScatterSampler, ConcurrencyAveragesInUse) {
  // One request of 100ms CPU on an idle service: during its bucket the
  // entry pool holds 1 slot.
  Fixture f(testutil::single_service(4.0, 8, 100000, 0, 0.0));
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  ScatterSampler sampler(f.sim, f.tracer, knob, msec(100), msec(500));
  sampler.start();
  f.sim.schedule_at(0, [&] { f.app.inject(0, [](SimTime) {}); });
  f.sim.run_until(msec(100));
  const auto pts = sampler.points();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_NEAR(pts[0].concurrency, 1.0, 0.01);
}

TEST(ScatterSampler, EdgeKnobMeasuresTargetCompletions) {
  Fixture f(testutil::edge_pool_app(2, 1000, 0.0));
  ResourceKnob knob = ResourceKnob::edge(f.app.service("caller"), "db");
  ScatterSampler sampler(f.sim, f.tracer, knob, msec(100), msec(50));
  sampler.start();
  f.drive(100, sec(1));
  f.sim.run_until(sec(1));
  double total = 0.0;
  for (const auto& p : sampler.points()) total += p.throughput;
  // ~100 db visits over 10 buckets at 100ms -> sum of rates ~ 1000.
  EXPECT_NEAR(total, 1000.0, 150.0);
}

TEST(ScatterSampler, RingBufferBounded) {
  Fixture f(testutil::single_service());
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  ScatterSampler sampler(f.sim, f.tracer, knob, msec(10), msec(50), 16);
  sampler.start();
  f.sim.run_until(sec(1));
  EXPECT_LE(sampler.size(), 16u);
}

TEST(ScatterSampler, PointsSinceFilters) {
  Fixture f(testutil::single_service());
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  ScatterSampler sampler(f.sim, f.tracer, knob, msec(100), msec(50));
  sampler.start();
  f.sim.run_until(sec(1));
  EXPECT_EQ(sampler.points_since(0).size(), 10u);
  EXPECT_EQ(sampler.points_since(msec(550)).size(), 5u);
  sampler.clear();
  EXPECT_EQ(sampler.size(), 0u);
}

TEST(ScatterSampler, StopHaltsSampling) {
  Fixture f(testutil::single_service());
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  ScatterSampler sampler(f.sim, f.tracer, knob, msec(100), msec(50));
  sampler.start();
  f.sim.run_until(msec(300));
  sampler.stop();
  const std::size_t n = sampler.size();
  f.sim.run_until(sec(1));
  EXPECT_EQ(sampler.size(), n);
}

// Test-side oracle: a listener on every service sees all spans, and a
// tick armed right after the samplers' own fires right after theirs at every
// bucket boundary. Each sampler's goodput and throughput must equal the
// oracle's count over its completion service, bucket by bucket, with spans
// the interceptor drops and failed spans excluded.
TEST(ScatterSampler, PointsMatchAllSpansOracle) {
  Fixture f(testutil::chain_app(0.6));
  f.app.service("mid")->scale_replicas(2);
  // Drop every third span report; assembly is unaffected.
  int reports = 0;
  f.tracer.set_span_interceptor([&reports](const Span&) {
    return ++reports % 3 != 0;
  });

  struct Probe {
    std::unique_ptr<ScatterSampler> sampler;
    std::uint64_t good = 0;
    std::uint64_t all = 0;
    std::size_t checked = 0;
  };
  const SimTime interval = msec(100);
  std::vector<Probe> probes;
  const auto add = [&](ResourceKnob knob, SimTime threshold) {
    Probe p;
    p.sampler = std::make_unique<ScatterSampler>(f.sim, f.tracer, knob,
                                                 interval, threshold);
    probes.push_back(std::move(p));
  };
  add(ResourceKnob::entry(f.app.service("front")), msec(8));
  add(ResourceKnob::entry(f.app.service("mid")), msec(4));
  add(ResourceKnob::entry(f.app.service("mid")), msec(2));  // same service
  add(ResourceKnob::entry(f.app.service("leaf")), msec(2));

  std::uint64_t oracle_spans = 0;
  for (const auto& svc : f.app.services()) {
    f.tracer.add_span_listener(svc->id(), [&](const Span& s) {
      ++oracle_spans;
      if (s.failed) return;
      for (Probe& p : probes) {
        if (p.sampler->knob().completion_service() != s.service) continue;
        ++p.all;
        if (s.duration() <= p.sampler->rt_threshold()) ++p.good;
      }
    });
  }
  for (Probe& p : probes) p.sampler->start();
  std::size_t ticks = 0;
  EventHandle oracle_tick = f.sim.schedule_periodic(interval, [&] {
    ++ticks;
    const double secs = to_sec(interval);
    for (Probe& p : probes) {
      const auto pts = p.sampler->points();
      ASSERT_EQ(pts.size(), ticks);
      EXPECT_EQ(pts.back().at, f.sim.now());
      EXPECT_DOUBLE_EQ(pts.back().throughput,
                       static_cast<double>(p.all) / secs);
      EXPECT_DOUBLE_EQ(pts.back().goodput, static_cast<double>(p.good) / secs);
      p.all = 0;
      p.good = 0;
      ++p.checked;
    }
  });
  f.drive(400, sec(2));
  f.sim.schedule_at(msec(700), [&] {
    f.app.service("mid")->crash_replica(1, /*drop_inflight=*/true);
  });
  f.sim.run_until(sec(2));
  oracle_tick.cancel();

  EXPECT_EQ(ticks, 20u);
  EXPECT_GT(oracle_spans, 1500u);
  EXPECT_GT(f.app.service("mid")->visits_dropped(), 0u);
  for (const Probe& p : probes) EXPECT_EQ(p.checked, 20u);
}

}  // namespace
}  // namespace sora
