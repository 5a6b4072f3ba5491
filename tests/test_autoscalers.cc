// Tests for the hardware-only autoscalers: HPA, VPA, FIRM-like.
#include <gtest/gtest.h>

#include "autoscale/firm.h"
#include "autoscale/hpa.h"
#include "autoscale/vpa.h"
#include "svc/application.h"
#include "svc/utilization.h"
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

std::vector<ControlAction> of_kind(const std::vector<ControlAction>& actions,
                                   ControlAction::Kind kind) {
  std::vector<ControlAction> out;
  for (const ControlAction& a : actions) {
    if (a.kind == kind) out.push_back(a);
  }
  return out;
}

/// Single CPU-bound service that one replica/core cannot handle.
ApplicationConfig hot_app(double cores = 1.0) {
  return testutil::single_service(cores, 64, 4000, 2000, 0.4);
}

TEST(UtilizationTracker, MeasuresBusyFraction) {
  Fixture f(testutil::single_service(1.0, 8, 100000, 0, 0.0));
  UtilizationTracker util(f.app);
  Service* svc = f.app.service("svc");
  // One 100ms job on 1 core over a 200ms window -> 50% utilization.
  f.app.inject(0, [](SimTime) {});
  f.sim.run_until(msec(200));
  EXPECT_NEAR(util.utilization(*svc), 0.5, 0.02);
  util.epoch();
  f.sim.run_until(msec(300));
  EXPECT_NEAR(util.utilization(*svc), 0.0, 0.01);
}

TEST(Hpa, ScalesOutUnderLoad) {
  Fixture f(hot_app());
  HpaOptions opts;
  opts.max_replicas = 6;
  HorizontalPodAutoscaler hpa(f.sim, f.app, opts);
  hpa.manage(f.app.service("svc"));
  hpa.start();

  ClosedLoopGenerator users(f.sim, f.app, 50, msec(50), 2);
  users.start();
  f.sim.run_until(sec(60));
  users.stop();
  hpa.stop();

  EXPECT_GT(f.app.service("svc")->active_replicas(), 1);
  const std::vector<ControlAction> scales =
      of_kind(hpa.actions(), ControlAction::Kind::kReplicas);
  ASSERT_FALSE(scales.empty());
  EXPECT_EQ(scales.size(), hpa.actions().size());
  EXPECT_GT(scales.front().new_replicas, scales.front().old_replicas);
}

TEST(Hpa, ScalesInAfterLoadDropsWithStabilization) {
  Fixture f(hot_app());
  HpaOptions opts;
  opts.max_replicas = 6;
  opts.downscale_stabilization_periods = 3;
  HorizontalPodAutoscaler hpa(f.sim, f.app, opts);
  hpa.manage(f.app.service("svc"));
  hpa.start();

  ClosedLoopGenerator users(f.sim, f.app, 50, msec(50), 3);
  users.start();
  f.sim.run_until(sec(60));
  const int peak = f.app.service("svc")->active_replicas();
  users.set_users(1);
  f.sim.run_until(sec(180));
  users.stop();
  hpa.stop();

  EXPECT_LT(f.app.service("svc")->active_replicas(), peak);
}

TEST(Hpa, RespectsMaxReplicas) {
  Fixture f(hot_app());
  HpaOptions opts;
  opts.max_replicas = 2;
  HorizontalPodAutoscaler hpa(f.sim, f.app, opts);
  hpa.manage(f.app.service("svc"));
  hpa.start();
  ClosedLoopGenerator users(f.sim, f.app, 200, msec(20), 4);
  users.start();
  f.sim.run_until(sec(60));
  EXPECT_LE(f.app.service("svc")->active_replicas(), 2);
}

TEST(Vpa, ScalesUpCores) {
  Fixture f(hot_app(1.0));
  VpaOptions opts;
  opts.max_cores = 4.0;
  VerticalPodAutoscaler vpa(f.sim, f.app, opts);
  vpa.manage(f.app.service("svc"));
  vpa.start();
  ClosedLoopGenerator users(f.sim, f.app, 50, msec(50), 5);
  users.start();
  f.sim.run_until(sec(60));
  EXPECT_GT(f.app.service("svc")->cpu_limit(), 1.0);
  EXPECT_LE(f.app.service("svc")->cpu_limit(), 4.0);
  const std::vector<ControlAction> scales =
      of_kind(vpa.actions(), ControlAction::Kind::kCores);
  ASSERT_FALSE(scales.empty());
  EXPECT_EQ(scales.size(), vpa.actions().size());
}

TEST(Vpa, ScalesDownWhenIdleWithStabilization) {
  Fixture f(hot_app(4.0));
  VpaOptions opts;
  opts.min_cores = 1.0;
  opts.downscale_stabilization_periods = 2;
  VerticalPodAutoscaler vpa(f.sim, f.app, opts);
  vpa.manage(f.app.service("svc"));
  vpa.start();
  f.sim.run_until(sec(60));  // no load at all
  EXPECT_LT(f.app.service("svc")->cpu_limit(), 4.0);
}

TEST(Firm, ScalesCriticalServiceOnSloViolation) {
  Fixture f(hot_app(1.0));
  FirmOptions opts;
  opts.slo_latency = msec(20);
  opts.max_cores = 4.0;
  FirmAutoscaler firm(f.sim, f.app, f.warehouse, opts);
  firm.start();
  ClosedLoopGenerator users(f.sim, f.app, 40, msec(50), 6);
  users.start();
  f.sim.run_until(sec(60));
  EXPECT_GT(f.app.service("svc")->cpu_limit(), 1.0);
  EXPECT_TRUE(firm.last_report().critical.valid());
}

TEST(Firm, NeverTouchesPools) {
  Fixture f(hot_app(1.0));
  const int pool_before = f.app.service("svc")->entry_pool_size();
  FirmOptions opts;
  opts.slo_latency = msec(20);
  FirmAutoscaler firm(f.sim, f.app, f.warehouse, opts);
  firm.start();
  ClosedLoopGenerator users(f.sim, f.app, 40, msec(50), 7);
  users.start();
  f.sim.run_until(sec(60));
  EXPECT_EQ(f.app.service("svc")->entry_pool_size(), pool_before);
}

TEST(Firm, ManagedListRestrictsScaling) {
  Fixture f(testutil::chain_app(0.5));
  FirmOptions opts;
  opts.slo_latency = msec(1);  // always violating
  FirmAutoscaler firm(f.sim, f.app, f.warehouse, opts);
  firm.manage(f.app.service("mid"));
  firm.start();
  ClosedLoopGenerator users(f.sim, f.app, 30, msec(50), 8);
  users.start();
  f.sim.run_until(sec(125));  // eight rounds
  // FIRM scaled "mid", and only "mid".
  EXPECT_DOUBLE_EQ(f.app.service("front")->cpu_limit(), 4.0);
  EXPECT_DOUBLE_EQ(f.app.service("leaf")->cpu_limit(), 4.0);
  EXPECT_GT(f.app.service("mid")->cpu_limit(), 4.0);
}

}  // namespace
}  // namespace sora
