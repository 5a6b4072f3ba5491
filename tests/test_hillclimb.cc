// Tests for the hill-climbing baseline tuner.
#include "core/hillclimb.h"

#include <gtest/gtest.h>

#include "svc/application.h"
#include "test_util.h"
#include "trace/tracer.h"
#include "workload/generator.h"

namespace sora {
namespace {

struct Fixture {
  Simulator sim;
  Tracer tracer;
  Application app;
  explicit Fixture(ApplicationConfig cfg)
      : app(sim, tracer, std::move(cfg), 1) {}
};

TEST(HillClimb, ClimbsOutOfStarvation) {
  // 8-core service with a 2-slot pool: any climb direction that grows the
  // pool improves goodput, so the tuner must walk upward.
  Fixture f(testutil::single_service(8.0, 2, 2000, 1000, 0.4));
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  HillClimbOptions opts;
  opts.rt_threshold = msec(50);
  HillClimbTuner tuner(f.sim, f.tracer, knob, opts);
  tuner.start();

  ClosedLoopGenerator users(f.sim, f.app, 40, msec(50), 3);
  users.start();
  f.sim.run_until(sec(180));  // twelve 15 s steps
  users.stop();
  tuner.stop();

  EXPECT_GT(knob.current_size(), 4);
  EXPECT_GT(tuner.steps_taken(), 3u);
}

TEST(HillClimb, RespectsBounds) {
  // Start two slots under the ceiling: the first upward step reaches it,
  // and flat goodput beyond the 40 users keeps the climb pushing on it.
  Fixture f(testutil::single_service(8.0, HillClimbTuner::kMaxSize - 2, 2000,
                                     1000, 0.4));
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  HillClimbTuner tuner(f.sim, f.tracer, knob);
  tuner.start();
  ClosedLoopGenerator users(f.sim, f.app, 40, msec(50), 4);
  users.start();
  f.sim.run_until(sec(90));
  users.stop();
  EXPECT_LE(knob.current_size(), HillClimbTuner::kMaxSize);
  EXPECT_GE(knob.current_size(), 1);
}

TEST(HillClimb, StopHaltsSteps) {
  Fixture f(testutil::single_service(8.0, 2, 2000, 1000, 0.4));
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  HillClimbTuner tuner(f.sim, f.tracer, knob);
  tuner.start();
  f.sim.run_until(sec(20));  // one 15 s step
  tuner.stop();
  const auto steps = tuner.steps_taken();
  f.sim.run_until(sec(60));
  EXPECT_EQ(tuner.steps_taken(), steps);
}

}  // namespace
}  // namespace sora
