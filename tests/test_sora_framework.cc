// Integration tests for the Sora framework control loop.
#include "core/sora.h"

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
  TraceWarehouse warehouse{100000};
  Application app;
  explicit Fixture(ApplicationConfig cfg, std::uint64_t seed = 1)
      : app(sim, tracer, std::move(cfg), seed) {
    warehouse.attach(tracer);
  }
};

/// Service with a starved entry pool (2) relative to its parallelism needs:
/// 8 cores, short demands, so the optimal is well above 2.
ApplicationConfig starved_app() {
  ApplicationConfig cfg = testutil::single_service(8.0, 2, 2000, 1000, 0.5);
  return cfg;
}

TEST(SoraFramework, GrowsStarvedPool) {
  Fixture f(starved_app());
  SoraFrameworkOptions opts;
  opts.sla = msec(100);
  SoraFramework sora(f.app, f.warehouse, opts);
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  sora.manage(knob);
  sora.start();
  testutil::step_rounds(f.sim, sora, sec(5));

  ClosedLoopGenerator users(f.sim, f.app, 40, msec(50), 3);
  users.start();
  f.sim.run_until(sec(90));
  users.stop();

  // The starved 2-slot pool must have been grown (knee ~ CPU parallelism
  // needs plus headroom); exactly where it settles depends on load.
  EXPECT_GE(knob.current_size(), 4);
  EXPECT_GT(sora.control_rounds(), 10u);
  // And the system must actually be healthy: most requests within SLA.
  // (A starved pool of 2 would queue them into the hundreds of ms.)
  bool adapted = false;
  for (const AdaptAction& a : sora.adapter().history()) {
    if (a.type != AdaptAction::Type::kNone) adapted = true;
  }
  EXPECT_TRUE(adapted);
}

TEST(SoraFramework, DeadlinePropagationUpdatesThreshold) {
  Fixture f(testutil::chain_app(0.3));
  SoraFrameworkOptions opts;
  opts.sla = msec(50);
  SoraFramework sora(f.app, f.warehouse, opts);
  ResourceKnob knob = ResourceKnob::entry(f.app.service("leaf"));
  sora.manage(knob);
  sora.start();

  ClosedLoopGenerator users(f.sim, f.app, 20, msec(50), 4);
  users.start();
  f.sim.run_until(sec(30));
  users.stop();

  const SimTime rtt = sora.estimator().rt_threshold(knob);
  // Leaf's threshold = SLA - upstream PT (front 0.8ms + mid 1.2ms ~ 2ms).
  EXPECT_LT(rtt, msec(50));
  EXPECT_GT(rtt, msec(40));
}

TEST(SoraFramework, ConScaleModeSkipsDeadlines) {
  Fixture f(testutil::chain_app(0.3));
  SoraFrameworkOptions opts = make_conscale_options();
  const SimTime default_rtt = opts.estimator.default_rt_threshold;
  SoraFramework conscale(f.app, f.warehouse, opts);
  ResourceKnob knob = ResourceKnob::entry(f.app.service("leaf"));
  conscale.manage(knob);
  conscale.start();

  ClosedLoopGenerator users(f.sim, f.app, 20, msec(50), 5);
  users.start();
  f.sim.run_until(sec(30));
  users.stop();

  EXPECT_EQ(conscale.estimator().rt_threshold(knob), default_rtt);
  EXPECT_EQ(conscale.options().model,
            ModelKind::kScatterConcurrencyThroughput);
}

TEST(SoraFramework, LocalizationRunsEachRound) {
  Fixture f(testutil::chain_app(0.5));
  SoraFramework sora(f.app, f.warehouse);
  sora.manage(ResourceKnob::entry(f.app.service("mid")));
  sora.start();

  ClosedLoopGenerator users(f.sim, f.app, 30, msec(50), 6);
  users.start();
  f.sim.run_until(sec(20));
  users.stop();

  EXPECT_TRUE(sora.last_report().critical.valid());
  EXPECT_GT(sora.last_report().traces_analyzed, 0u);
}

TEST(SoraFramework, HardwareScaleVerticalRescalesEntryKnob) {
  Fixture f(testutil::single_service(2.0, 10, 2000, 1000, 0.3));
  SoraFramework sora(f.app, f.warehouse);
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  sora.manage(knob);
  Service* svc = f.app.service("svc");
  svc->set_cpu_limit(4.0);
  sora.on_hardware_scaled(svc, 2.0, 4.0, 1, 1);
  EXPECT_EQ(knob.current_size(), 20);  // 10 x (4/2)
}

TEST(SoraFramework, HardwareScaleHorizontalTargetRescalesEdgeKnob) {
  Fixture f(testutil::edge_pool_app(10));
  SoraFramework sora(f.app, f.warehouse);
  ResourceKnob knob = ResourceKnob::edge(f.app.service("caller"), "db");
  sora.manage(knob);
  Service* db = f.app.service("db");
  db->scale_replicas(3);
  sora.on_hardware_scaled(db, db->cpu_limit(), db->cpu_limit(), 1, 3);
  EXPECT_EQ(knob.current_size(), 30);  // tracks target parallelism
}

TEST(SoraFramework, HardwareScaleUnrelatedServiceNoop) {
  Fixture f(testutil::chain_app());
  SoraFramework sora(f.app, f.warehouse);
  ResourceKnob knob = ResourceKnob::entry(f.app.service("mid"));
  sora.manage(knob);
  const int before = knob.current_size();
  Service* leaf = f.app.service("leaf");
  sora.on_hardware_scaled(leaf, 2.0, 4.0, 1, 1);
  EXPECT_EQ(knob.current_size(), before);
}

TEST(SoraFramework, ManageIsIdempotent) {
  Fixture f(testutil::single_service());
  SoraFramework sora(f.app, f.warehouse);
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  sora.manage(knob);
  sora.manage(knob);
  EXPECT_EQ(sora.managed().size(), 1u);
}

TEST(SoraFramework, StopHaltsControlLoop) {
  Fixture f(testutil::single_service());
  SoraFramework sora(f.app, f.warehouse);
  sora.manage(ResourceKnob::entry(f.app.service("svc")));
  sora.start();
  f.sim.run_until(sec(20));  // one 15 s round
  const auto rounds = sora.control_rounds();
  sora.stop();
  f.sim.run_until(sec(60));
  EXPECT_EQ(sora.control_rounds(), rounds);
}

}  // namespace
}  // namespace sora
