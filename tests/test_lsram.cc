// Tests for the LSRAM-style gradient-descent allocator: stepper clamping
// and convergence on a synthetic convex surface, degenerate inputs failing
// closed, and pool growth under violating load at the controller level.
#include <gtest/gtest.h>

#include "autoscale/lsram.h"
#include "svc/application.h"
#include "test_util.h"
#include "trace/tracer.h"
#include "workload/generator.h"

namespace sora {
namespace {

struct Fixture {
  Simulator sim;
  Tracer tracer;
  TraceWarehouse warehouse{100000};
  Application app;
  explicit Fixture(ApplicationConfig cfg, std::uint64_t seed = 1)
      : app(sim, tracer, std::move(cfg), seed) {
    warehouse.attach(tracer);
  }
};

// -- GradientStepper (pure math) ----------------------------------------------

TEST(GradientStepper, FirstCallProbesToSeedTheWarmStart) {
  GradientStepper s;  // probe step 1
  EXPECT_FALSE(s.warm());
  EXPECT_DOUBLE_EQ(s.step(10.0, 0.5), 11.0);
  EXPECT_TRUE(s.warm());
}

TEST(GradientStepper, StepsAreClampedToMaxStep) {
  GradientStepper s;  // learning rate 8, max step 4, probe step 1
  s.step(10.0, 5.0);  // probe -> 11
  // dj = -5 over dx = +1: raw step = -lr * g = 40, clamped to +4.
  EXPECT_DOUBLE_EQ(s.step(11.0, 0.0), 15.0);
}

TEST(GradientStepper, RespectsAllocationBounds) {
  constexpr double kMin = GradientStepper::kMinX;
  constexpr double kMax = GradientStepper::kMaxX;
  GradientStepper s;
  // Probe from near the ceiling stays inside [kMinX, kMaxX].
  EXPECT_DOUBLE_EQ(s.step(kMax - 0.5, 1.0), kMax);
  // A steep descent direction cannot escape the ceiling either.
  EXPECT_LE(s.step(kMax, 0.0), kMax);
  // And an ascent direction cannot fall below the floor.
  GradientStepper down;
  down.step(kMin + 1.0, 0.0);
  EXPECT_GE(down.step(kMin + 2.0, 100.0), kMin);
}

TEST(GradientStepper, FlatSurfaceHoldsInsteadOfDrifting) {
  GradientStepper s;
  s.step(10.0, 1.0);                       // probe -> 11
  EXPECT_DOUBLE_EQ(s.step(11.0, 1.0), 11.0);  // dj == 0: hold
}

TEST(GradientStepper, AbsorbedStepProbesAgain) {
  GradientStepper s;  // probe step 1
  s.step(10.0, 1.0);  // probe -> 11, remembers x=10
  // The move was externally reverted (x still 10): no gradient, probe.
  EXPECT_DOUBLE_EQ(s.step(10.0, 1.0), 11.0);
}

TEST(GradientStepper, ConvergesNearTheMinimumOfAConvexSurface) {
  GradientStepper s;  // learning rate 8, max step 4
  auto j = [](double x) { return (x - 20.0) * (x - 20.0) / 100.0; };
  double x = 5.0;
  for (int i = 0; i < 50; ++i) x = s.step(x, j(x));
  EXPECT_NEAR(x, 20.0, 2.0);
}

TEST(GradientStepper, ResetForgetsTheWarmStart) {
  GradientStepper s;  // probe step 1
  s.step(10.0, 1.0);
  EXPECT_TRUE(s.warm());
  s.reset();
  EXPECT_FALSE(s.warm());
  // Next call probes again instead of differencing against stale state.
  EXPECT_DOUBLE_EQ(s.step(11.0, 0.5), 12.0);
}

// -- controller level ---------------------------------------------------------

TEST(LsramController, FailsClosedWithoutTraces) {
  Fixture f(testutil::single_service(2.0, 8, 1000, 500, 0.3));
  obs::DecisionLog log;
  LsramController ctl(f.app, f.warehouse);
  ctl.set_decision_log(&log);
  ctl.manage(ResourceKnob::entry(f.app.service("svc")));
  ctl.start();
  f.sim.run_until(sec(50));  // three starved 15 s rounds
  ctl.stop();

  EXPECT_EQ(f.app.service("svc")->entry_pool_size(), 8);
  EXPECT_TRUE(ctl.actions().empty());
  ASSERT_GE(log.records().size(), 3u);
  for (const auto& rec : log.records()) {
    EXPECT_EQ(rec.action, "hold");
    EXPECT_NE(rec.reason.find("insufficient window telemetry"),
              std::string::npos);
  }
}

TEST(LsramController, GrowsAStarvedPoolUnderViolatingLoad) {
  // 4 cores behind a 2-thread entry pool: requests queue at the pool, span
  // durations blow past the SLO, and a larger pool strictly improves the
  // objective. The descent must discover that and grow the pool.
  Fixture f(testutil::single_service(4.0, 2, 3000, 0, 0.3), 7);
  LsramOptions opts;
  opts.span_slo = msec(6);
  LsramController ctl(f.app, f.warehouse, opts);
  ctl.manage(ResourceKnob::entry(f.app.service("svc")));
  ctl.start();

  // ~870 r/s offered: well within the 4 cores (1333 r/s) but far beyond
  // what 2 threads can admit — the pool, not the CPU, is the bottleneck.
  ClosedLoopGenerator users(f.sim, f.app, 20, msec(20), 2);
  users.start();
  f.sim.run_until(sec(60));
  users.stop();
  ctl.stop();

  EXPECT_GT(f.app.service("svc")->entry_pool_size(), 2);
  ASSERT_FALSE(ctl.actions().empty());
  EXPECT_EQ(ctl.actions().front().kind, ControlAction::Kind::kPoolResize);
}

TEST(LsramController, TopologyChangeResetsTheWarmStartAndIsAudited) {
  Fixture f(testutil::single_service(4.0, 2, 3000, 0, 0.3), 7);
  obs::DecisionLog log;
  LsramOptions opts;
  opts.span_slo = msec(6);
  LsramController ctl(f.app, f.warehouse, opts);
  ctl.set_decision_log(&log);
  ctl.manage(ResourceKnob::entry(f.app.service("svc")));
  ctl.start();
  ClosedLoopGenerator users(f.sim, f.app, 20, msec(20), 2);
  users.start();
  f.sim.run_until(sec(20));  // one warm 15 s round

  ctl.on_topology_changed(f.app.service("svc"), "instance crash");
  bool audited = false;
  for (const auto& rec : log.records()) {
    if (rec.action == "relocalize") {
      audited = true;
      EXPECT_NE(rec.reason.find("instance crash"), std::string::npos);
      EXPECT_EQ(rec.controller, "lsram");
    }
  }
  EXPECT_TRUE(audited);

  // The next decided move is a fresh probe, not a stale gradient step.
  f.sim.run_until(sec(35));
  users.stop();
  ctl.stop();
  bool probe_after_reset = false;
  for (const auto& rec : log.records()) {
    if (rec.at > sec(20) && rec.action == "probe") probe_after_reset = true;
  }
  EXPECT_TRUE(probe_after_reset);
}

}  // namespace
}  // namespace sora
