// Tests for deterministic fault plans: scripted construction and
// seed-derived randomization must be pure functions of their inputs.
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <set>

namespace sora {
namespace {

RandomFaultOptions full_options() {
  RandomFaultOptions opt;
  opt.crash_services = {"front", "mid"};
  opt.cpu_services = {"leaf"};
  opt.crashes = 2;
  opt.cpu_steps = 2;
  opt.span_dropouts = 1;
  opt.scatter_dropouts = 1;
  opt.control_stalls = 1;
  return opt;
}

bool same_event(const FaultEvent& a, const FaultEvent& b) {
  return a.kind == b.kind && a.at == b.at && a.service == b.service &&
         a.instance == b.instance && a.drop_inflight == b.drop_inflight &&
         a.duration == b.duration && a.fraction == b.fraction &&
         a.delay == b.delay && a.cores == b.cores;
}

TEST(FaultPlan, ToStringCoversEveryKind) {
  EXPECT_STREQ(to_string(FaultKind::kCrashInstance), "crash_instance");
  EXPECT_STREQ(to_string(FaultKind::kCpuLimitStep), "cpu_limit_step");
  EXPECT_STREQ(to_string(FaultKind::kSpanDropout), "span_dropout");
  EXPECT_STREQ(to_string(FaultKind::kSpanDelay), "span_delay");
  EXPECT_STREQ(to_string(FaultKind::kScatterDropout), "scatter_dropout");
  EXPECT_STREQ(to_string(FaultKind::kControlStall), "control_stall");
}

TEST(FaultPlan, ScriptedAddPreservesEvents) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  FaultEvent crash;
  crash.kind = FaultKind::kCrashInstance;
  crash.at = sec(10);
  crash.service = "svc";
  crash.drop_inflight = true;
  crash.duration = sec(5);
  FaultEvent step;
  step.kind = FaultKind::kCpuLimitStep;
  step.at = sec(3);
  step.service = "svc";
  step.cores = 1.5;
  plan.add(crash).add(step);
  ASSERT_EQ(plan.size(), 2u);
  // add() keeps insertion order; the injector schedules by `at`, so the
  // simulator imposes time order regardless.
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kCrashInstance);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kCpuLimitStep);
  EXPECT_TRUE(plan.events()[0].drop_inflight);
  EXPECT_DOUBLE_EQ(plan.events()[1].cores, 1.5);
}

TEST(FaultPlan, RandomIsDeterministicPerSeed) {
  const FaultPlan a = FaultPlan::random(1234, minutes(10), full_options());
  const FaultPlan b = FaultPlan::random(1234, minutes(10), full_options());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_event(a.events()[i], b.events()[i])) << "event " << i;
  }
}

TEST(FaultPlan, RandomDiffersAcrossSeeds) {
  const FaultPlan a = FaultPlan::random(1, minutes(10), full_options());
  const FaultPlan b = FaultPlan::random(2, minutes(10), full_options());
  ASSERT_EQ(a.size(), b.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_event(a.events()[i], b.events()[i])) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultPlan, RandomProducesExactCounts) {
  const FaultPlan plan = FaultPlan::random(7, minutes(10), full_options());
  std::size_t crashes = 0, steps = 0, span_drops = 0, scatter_drops = 0,
              stalls = 0;
  for (const FaultEvent& ev : plan.events()) {
    switch (ev.kind) {
      case FaultKind::kCrashInstance: ++crashes; break;
      case FaultKind::kCpuLimitStep: ++steps; break;
      case FaultKind::kSpanDropout: ++span_drops; break;
      case FaultKind::kScatterDropout: ++scatter_drops; break;
      case FaultKind::kControlStall: ++stalls; break;
      default: break;
    }
  }
  EXPECT_EQ(crashes, 2u);
  EXPECT_EQ(steps, 2u);
  EXPECT_EQ(span_drops, 1u);
  EXPECT_EQ(scatter_drops, 1u);
  EXPECT_EQ(stalls, 1u);
  EXPECT_EQ(plan.size(), 7u);
}

TEST(FaultPlan, RandomTimesStayInsideConfiguredWindow) {
  RandomFaultOptions opt = full_options();
  opt.earliest = 0.2;
  opt.latest = 0.6;
  const SimTime horizon = minutes(10);
  const FaultPlan plan = FaultPlan::random(99, horizon, opt);
  const auto lo = static_cast<SimTime>(0.2 * static_cast<double>(horizon));
  const auto hi = static_cast<SimTime>(0.6 * static_cast<double>(horizon));
  for (const FaultEvent& ev : plan.events()) {
    EXPECT_GE(ev.at, lo);
    EXPECT_LE(ev.at, hi);
  }
}

TEST(FaultPlan, RandomEventsSortedByTime) {
  const FaultPlan plan = FaultPlan::random(55, minutes(10), full_options());
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LE(plan.events()[i - 1].at, plan.events()[i].at);
  }
}

TEST(FaultPlan, RandomTargetsComeFromCandidateLists) {
  const RandomFaultOptions opt = full_options();
  const FaultPlan plan = FaultPlan::random(21, minutes(10), opt);
  const std::set<std::string> crash_ok(opt.crash_services.begin(),
                                       opt.crash_services.end());
  for (const FaultEvent& ev : plan.events()) {
    if (ev.kind == FaultKind::kCrashInstance) {
      EXPECT_TRUE(crash_ok.count(ev.service)) << ev.service;
    }
    if (ev.kind == FaultKind::kCpuLimitStep) {
      EXPECT_EQ(ev.service, "leaf");
      EXPECT_GE(ev.cores, kRandomCpuCoresLo);
      EXPECT_LE(ev.cores, kRandomCpuCoresHi);
    }
  }
}

TEST(FaultPlan, EmptyCandidateListsDisableThoseKinds) {
  RandomFaultOptions opt = full_options();
  opt.crash_services.clear();
  opt.cpu_services.clear();
  const FaultPlan plan = FaultPlan::random(3, minutes(10), opt);
  for (const FaultEvent& ev : plan.events()) {
    EXPECT_NE(ev.kind, FaultKind::kCrashInstance);
    EXPECT_NE(ev.kind, FaultKind::kCpuLimitStep);
  }
  // The telemetry/stall events remain.
  EXPECT_EQ(plan.size(), 3u);
}

TEST(FaultPlan, ZeroCountsYieldEmptyPlan) {
  RandomFaultOptions opt;
  opt.crashes = 0;
  opt.cpu_steps = 0;
  opt.span_dropouts = 0;
  opt.scatter_dropouts = 0;
  opt.control_stalls = 0;
  const FaultPlan plan = FaultPlan::random(1, minutes(10), opt);
  EXPECT_TRUE(plan.empty());
}

}  // namespace
}  // namespace sora
