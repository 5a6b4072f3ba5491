// Tests for the Autothrottle-style bi-level latency-target controller:
// credit-allocation math (targets sum to the budget, monotone in burn
// rate, floor handling), degenerate inputs fail closed, and the
// controller-level coupling to the admission layer.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "autoscale/autothrottle.h"
#include "harness/experiment.h"
#include "test_util.h"

namespace sora {
namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// -- allocate_latency_targets (pure math) ------------------------------------

TEST(LatencyCredits, TargetsSumToBudget) {
  const auto t = allocate_latency_targets({0.5, 0.3, 0.2}, {1.0, 0.0, 2.0},
                                          400.0, 5.0);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_NEAR(sum(t), 400.0, 1e-9);
  for (double x : t) EXPECT_GE(x, 5.0 - 1e-9);
}

TEST(LatencyCredits, MonotoneInBurnRate) {
  const std::vector<double> demand = {0.4, 0.3, 0.3};
  const auto cold = allocate_latency_targets(demand, {0.0, 0.0, 0.0},
                                             300.0, 1.0);
  const auto hot = allocate_latency_targets(demand, {0.0, 3.0, 0.0},
                                            300.0, 1.0);
  ASSERT_EQ(cold.size(), 3u);
  ASSERT_EQ(hot.size(), 3u);
  // The burning service earns a strictly larger credit; with a fixed
  // budget the others shrink to pay for it.
  EXPECT_GT(hot[1], cold[1]);
  EXPECT_LT(hot[0], cold[0]);
  EXPECT_LT(hot[2], cold[2]);
  EXPECT_NEAR(sum(hot), 300.0, 1e-9);
}

TEST(LatencyCredits, FloorIsHonoredAndSumPreserved) {
  // 98% of the demand on one service would starve the other two below the
  // floor; the floor is raised and the big slice pays for it.
  const auto t = allocate_latency_targets({0.98, 0.01, 0.01}, {0.0, 0.0, 0.0},
                                          100.0, 10.0);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_NEAR(t[1], 10.0, 1e-9);
  EXPECT_NEAR(t[2], 10.0, 1e-9);
  EXPECT_NEAR(sum(t), 100.0, 1e-9);
}

TEST(LatencyCredits, SingleServiceGetsTheWholeBudget) {
  const auto t = allocate_latency_targets({1.0}, {0.7}, 250.0, 5.0);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_NEAR(t[0], 250.0, 1e-9);
}

TEST(LatencyCredits, DegenerateInputsFailClosed) {
  EXPECT_TRUE(allocate_latency_targets({}, {}, 400.0, 5.0).empty());
  EXPECT_TRUE(allocate_latency_targets({0.5, 0.5}, {0.0}, 400.0, 5.0).empty());
  EXPECT_TRUE(allocate_latency_targets({1.0}, {0.0}, 0.0, 5.0).empty());
  EXPECT_TRUE(allocate_latency_targets({1.0}, {0.0}, -10.0, 5.0).empty());
}

TEST(LatencyCredits, ZeroDemandSignalSplitsEqually) {
  const auto t = allocate_latency_targets({0.0, 0.0}, {0.0, 0.0}, 100.0, 5.0);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_NEAR(t[0], 50.0, 1e-9);
  EXPECT_NEAR(t[1], 50.0, 1e-9);
}

TEST(LatencyCredits, BudgetBelowFloorFallsBackToEqualSplit) {
  // 4 services x 5ms floor = 20ms > 12ms budget: the floor is unaffordable,
  // the equal split keeps the sum invariant.
  const auto t = allocate_latency_targets({0.7, 0.1, 0.1, 0.1},
                                          {0.0, 0.0, 0.0, 0.0}, 12.0, 5.0);
  ASSERT_EQ(t.size(), 4u);
  for (double x : t) EXPECT_NEAR(x, 3.0, 1e-9);
}

// -- controller level ---------------------------------------------------------

TEST(AutothrottleController, FailsClosedWithoutTelemetry) {
  ExperimentConfig ecfg;
  ecfg.duration = 2 * kAutothrottlePeriod + sec(5);  // two rounds
  ecfg.seed = 5;
  Experiment exp(testutil::single_service(2.0, 16, 1000, 500, 0.3), ecfg);
  // No workload at all: the trace window stays empty.
  auto& at = exp.add_autothrottle();
  at.manage(exp.app().service("svc"));
  exp.run();

  ASSERT_EQ(at.caps().size(), 1u);
  EXPECT_EQ(at.caps()[0], kAutothrottleInitialCap);
  EXPECT_EQ(at.targets_ms()[0], 0.0);
  EXPECT_TRUE(at.actions().empty());
  int holds = 0;
  for (const auto& rec : exp.decision_log().records()) {
    if (rec.controller != "autothrottle") continue;
    EXPECT_EQ(rec.action, "hold");
    EXPECT_NE(rec.reason.find("insufficient window telemetry"),
              std::string::npos);
    ++holds;
  }
  EXPECT_GE(holds, 2);
}

TEST(AutothrottleController, ThrottlesDownAndPublishesCapUnderOverload) {
  ExperimentConfig ecfg;
  ecfg.duration = sec(70);
  ecfg.sla = msec(8);
  ecfg.seed = 3;
  Experiment exp(testutil::single_service(1.0, 64, 4000, 2000, 0.4), ecfg);
  exp.closed_loop(40, msec(5), RequestMix(0));
  AdmissionOptions adm_opts;
  adm_opts.policy = AdmissionPolicy::kKneeCoupled;
  auto& adm = exp.enable_admission("svc", adm_opts);

  AutothrottleOptions ao;
  ao.budget = msec(4);  // far below the overloaded p99: must throttle
  auto& at = exp.add_autothrottle(ao);
  at.manage(exp.app().service("svc"));
  exp.run();

  ASSERT_EQ(at.caps().size(), 1u);
  EXPECT_LT(at.caps()[0], kAutothrottleInitialCap);
  // The cap was pushed through the knee publication path and enforced.
  EXPECT_GT(adm.knee_updates(), 0u);
  EXPECT_NEAR(adm.knee(), at.caps()[0], 1e-9);
  bool published = false;
  for (const ControlAction& a : at.actions()) {
    if (a.kind == ControlAction::Kind::kAdmissionTarget) {
      published = true;
      EXPECT_EQ(a.target, "svc");
      EXPECT_GT(a.admission_target, 0.0);
    }
  }
  EXPECT_TRUE(published);
}

TEST(AutothrottleController, FlatLatencyHoldsCaps) {
  // Light, flat load against a budget just above it: p99 is inside
  // [0.7 * target, target] (0.7 = the relax fraction), so the cap
  // controller holds in both directions.
  ExperimentConfig ecfg;
  ecfg.duration = sec(65);
  ecfg.seed = 9;
  // Deterministic 1.5 ms demand, 4 users on 4 cores: no queueing, so every
  // span takes the same ~1.5 ms.
  Experiment exp(testutil::single_service(4.0, 16, 1000, 500, 0.0), ecfg);
  exp.closed_loop(4, msec(20), RequestMix(0));

  AutothrottleOptions ao;
  ao.budget = usec(2000);  // the one service's target: p99 / target = 0.75
  auto& at = exp.add_autothrottle(ao);
  at.manage(exp.app().service("svc"));
  exp.run();

  EXPECT_EQ(at.caps()[0], kAutothrottleInitialCap);
  // Targets were still assigned (the allocator ran; only the caps held).
  EXPECT_GT(at.targets_ms()[0], 0.0);
  for (const ControlAction& a : at.actions()) {
    EXPECT_NE(a.kind, ControlAction::Kind::kAdmissionTarget);
  }
}

TEST(AutothrottleController, TargetsAcrossServicesSumToBudget) {
  ExperimentConfig ecfg;
  ecfg.duration = sec(65);
  ecfg.seed = 11;
  Experiment exp(testutil::chain_app(0.3), ecfg);
  exp.closed_loop(16, msec(10), RequestMix(0));

  AutothrottleOptions ao;
  ao.budget = msec(100);
  auto& at = exp.add_autothrottle(ao);
  at.manage(exp.app().service("front"));
  at.manage(exp.app().service("mid"));
  at.manage(exp.app().service("leaf"));
  exp.run();

  ASSERT_EQ(at.targets_ms().size(), 3u);
  EXPECT_NEAR(sum(at.targets_ms()), 100.0, 1e-6);
  for (double t : at.targets_ms()) {
    EXPECT_GE(t, kAutothrottleMinTargetMs - 1e-9);
  }
}

}  // namespace
}  // namespace sora
