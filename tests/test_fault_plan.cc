// Tests for deterministic fault plans: scripted construction keeps every
// event as given.
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

namespace sora {
namespace {

TEST(FaultPlan, ToStringCoversEveryKind) {
  EXPECT_STREQ(to_string(FaultKind::kCrashInstance), "crash_instance");
  EXPECT_STREQ(to_string(FaultKind::kCpuLimitStep), "cpu_limit_step");
  EXPECT_STREQ(to_string(FaultKind::kSpanDropout), "span_dropout");
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

}  // namespace
}  // namespace sora
