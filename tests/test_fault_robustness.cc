// Robustness regression suite: every controller must survive every fault
// scenario, Sora's tail degradation must stay bounded, and the decision log
// must carry the fault evidence.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "test_util.h"

namespace sora {
namespace {

enum class Controller { kNone, kSora, kConScale, kFirm, kHpa };
enum class Scenario { kNone, kCrash, kCpuChurn, kTelemetryDropout, kStall };

FaultPlan scenario_plan(Scenario scenario) {
  FaultPlan plan;
  switch (scenario) {
    case Scenario::kNone:
      break;
    case Scenario::kCrash: {
      FaultEvent ev;
      ev.kind = FaultKind::kCrashInstance;
      ev.at = sec(20);
      ev.service = "mid";
      ev.drop_inflight = true;
      ev.duration = sec(20);
      plan.add(ev);
      break;
    }
    case Scenario::kCpuChurn: {
      FaultEvent down;
      down.kind = FaultKind::kCpuLimitStep;
      down.at = sec(20);
      down.service = "mid";
      down.cores = 1.0;
      FaultEvent up;
      up.kind = FaultKind::kCpuLimitStep;
      up.at = sec(45);
      up.service = "mid";
      up.cores = 4.0;
      plan.add(down).add(up);
      break;
    }
    case Scenario::kTelemetryDropout: {
      FaultEvent spans;
      spans.kind = FaultKind::kSpanDropout;
      spans.at = sec(20);
      spans.duration = sec(30);
      spans.fraction = 0.7;
      FaultEvent scatter;
      scatter.kind = FaultKind::kScatterDropout;
      scatter.at = sec(20);
      scatter.duration = sec(30);
      scatter.fraction = 0.7;
      plan.add(spans).add(scatter);
      break;
    }
    case Scenario::kStall: {
      FaultEvent ev;
      ev.kind = FaultKind::kControlStall;
      ev.at = sec(20);
      ev.duration = sec(25);
      plan.add(ev);
      break;
    }
  }
  return plan;
}

struct RunOutput {
  ExperimentSummary summary;
  std::size_t crash_records = 0;
  std::size_t cpu_records = 0;
  std::size_t stalled_records = 0;
  std::size_t fault_window_records = 0;
  std::size_t relocalize_records = 0;
};

RunOutput run_scenario(Controller controller, Scenario scenario,
                       std::uint64_t seed = 42) {
  ExperimentConfig cfg;
  cfg.duration = sec(90);
  cfg.sla = msec(100);
  cfg.seed = seed;
  ApplicationConfig app = testutil::chain_app(0.3);
  app.services[1].with_replicas(2);  // crashable "mid"
  Experiment exp(app, cfg);

  SoraFramework* framework = nullptr;
  switch (controller) {
    case Controller::kNone:
      break;
    case Controller::kSora:
    case Controller::kConScale: {
      SoraFrameworkOptions so = controller == Controller::kConScale
                                    ? make_conscale_options()
                                    : SoraFrameworkOptions{};
      so.sla = cfg.sla;
      framework = &exp.add_sora(so);
      framework->manage(ResourceKnob::entry(exp.app().service("mid")));
      break;
    }
    case Controller::kFirm: {
      FirmOptions fo;
      fo.slo_latency = cfg.sla;
      auto& firm = exp.add_firm(fo);
      firm.manage(exp.app().service("mid"));
      break;
    }
    case Controller::kHpa: {
      auto& hpa = exp.add_hpa();
      hpa.manage(exp.app().service("mid"));
      break;
    }
  }

  const FaultPlan plan = scenario_plan(scenario);
  if (!plan.empty()) exp.enable_faults(plan);
  exp.closed_loop(30, msec(50));
  exp.start_all();
  // Sora and ConScale step every 5 s, three rounds per hardware-scaler
  // period, so a fault window spans several of their rounds.
  if (framework != nullptr) {
    testutil::step_rounds(exp.sim(), *framework, sec(5));
  }
  exp.run();

  RunOutput out;
  out.summary = exp.summary();
  for (const auto& rec : exp.decision_log().records()) {
    if (rec.action == "crash" || rec.action == "restart") ++out.crash_records;
    if (rec.action == "cpu_step") ++out.cpu_records;
    if (rec.action == "stalled") ++out.stalled_records;
    if (rec.action == "fault_start" || rec.action == "fault_end") {
      ++out.fault_window_records;
    }
    if (rec.action == "relocalize") ++out.relocalize_records;
  }
  return out;
}

void expect_survived(const RunOutput& out) {
  EXPECT_GT(out.summary.injected, 0u);
  EXPECT_GT(out.summary.completed, 0u);
  EXPECT_GT(out.summary.throughput_rps, 0.0);
  EXPECT_TRUE(std::isfinite(out.summary.p99_ms));
}

TEST(FaultRobustness, SoraSurvivesCrashWithEvidence) {
  const RunOutput out = run_scenario(Controller::kSora, Scenario::kCrash);
  expect_survived(out);
  EXPECT_EQ(out.crash_records, 2u);  // crash + restart
  EXPECT_EQ(out.relocalize_records, 2u);
}

TEST(FaultRobustness, SoraSurvivesCpuChurnWithEvidence) {
  const RunOutput out = run_scenario(Controller::kSora, Scenario::kCpuChurn);
  expect_survived(out);
  EXPECT_EQ(out.cpu_records, 2u);
}

TEST(FaultRobustness, SoraSurvivesTelemetryDropoutWithEvidence) {
  const RunOutput out =
      run_scenario(Controller::kSora, Scenario::kTelemetryDropout);
  expect_survived(out);
  EXPECT_EQ(out.fault_window_records, 4u);  // 2 windows x start/end
}

TEST(FaultRobustness, SoraSurvivesControlStallWithEvidence) {
  const RunOutput out = run_scenario(Controller::kSora, Scenario::kStall);
  expect_survived(out);
  // 25 s stall / 5 s rounds: several skipped-but-recorded rounds.
  EXPECT_GE(out.stalled_records, 4u);
}

// The bounded-degradation claim: faults hurt, but Sora's tail must stay
// within a small factor of the fault-free run (the system recovers instead
// of collapsing).
TEST(FaultRobustness, SoraP99StaysBoundedUnderEveryFault) {
  const RunOutput base = run_scenario(Controller::kSora, Scenario::kNone);
  ASSERT_GT(base.summary.p99_ms, 0.0);
  for (Scenario s : {Scenario::kCrash, Scenario::kCpuChurn,
                     Scenario::kTelemetryDropout, Scenario::kStall}) {
    const RunOutput out = run_scenario(Controller::kSora, s);
    expect_survived(out);
    EXPECT_LE(out.summary.p99_ms, base.summary.p99_ms * 5.0)
        << "scenario " << static_cast<int>(s);
    // Goodput must not collapse either: at least half the fault-free rate.
    EXPECT_GE(out.summary.goodput_rps, base.summary.goodput_rps * 0.5)
        << "scenario " << static_cast<int>(s);
  }
}

TEST(FaultRobustness, ConScaleBaselineSurvivesCrashAndStall) {
  expect_survived(run_scenario(Controller::kConScale, Scenario::kCrash));
  expect_survived(run_scenario(Controller::kConScale, Scenario::kStall));
}

TEST(FaultRobustness, FirmBaselineSurvivesEveryFault) {
  for (Scenario s : {Scenario::kCrash, Scenario::kCpuChurn,
                     Scenario::kTelemetryDropout, Scenario::kStall}) {
    expect_survived(run_scenario(Controller::kFirm, s));
  }
}

TEST(FaultRobustness, HpaBaselineSurvivesEveryFault) {
  for (Scenario s : {Scenario::kCrash, Scenario::kCpuChurn,
                     Scenario::kTelemetryDropout, Scenario::kStall}) {
    expect_survived(run_scenario(Controller::kHpa, s));
  }
}

TEST(FaultRobustness, UncontrolledRunSurvivesCrash) {
  // Even with no control plane at all the fault machinery must be safe.
  expect_survived(run_scenario(Controller::kNone, Scenario::kCrash));
}

}  // namespace
}  // namespace sora
