// Tests for the fault injector: every fault kind performs its effect,
// leaves decision-log evidence, and the whole faulted run stays
// deterministic per seed.
#include "fault/injector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "test_util.h"

namespace sora {
namespace {

/// Chain app with 2 "mid" replicas so one can crash without refusal.
ApplicationConfig crashable_chain() {
  ApplicationConfig app = testutil::chain_app(0.3);
  app.services[1].with_replicas(2);  // "mid"
  return app;
}

ExperimentConfig short_config(std::uint64_t seed = 11,
                              SimTime duration = sec(60)) {
  ExperimentConfig cfg;
  cfg.duration = duration;
  cfg.sla = msec(100);
  cfg.seed = seed;
  return cfg;
}

FaultEvent crash_event(const std::string& service, SimTime at,
                       SimTime downtime, bool drop) {
  FaultEvent ev;
  ev.kind = FaultKind::kCrashInstance;
  ev.at = at;
  ev.service = service;
  ev.instance = 0;
  ev.drop_inflight = drop;
  ev.duration = downtime;
  return ev;
}

bool log_has(const obs::DecisionLog& log, const std::string& action,
             const std::string& fault_kind) {
  for (const auto& rec : log.records()) {
    if (rec.action == action && rec.fault_kind == fault_kind) return true;
  }
  return false;
}

TEST(FaultInjector, CrashTakesReplicaDownAndRestartRestoresIt) {
  Experiment exp(crashable_chain(), short_config());
  auto& sora = exp.add_sora();
  sora.manage(ResourceKnob::entry(exp.app().service("mid")));
  FaultPlan plan;
  plan.add(crash_event("mid", sec(10), sec(20), /*drop=*/false));
  exp.enable_faults(plan);
  exp.closed_loop(20, msec(50));

  exp.run_until(sec(15));  // mid-crash
  Service* mid = exp.app().service("mid");
  EXPECT_EQ(mid->active_replicas(), 1);
  exp.run_until(sec(40));  // past the restart
  EXPECT_EQ(mid->active_replicas(), 2);

  ASSERT_NE(exp.fault_injector(), nullptr);
  EXPECT_EQ(exp.fault_injector()->crashes(), 1u);
  EXPECT_EQ(exp.fault_injector()->restarts(), 1u);
  EXPECT_TRUE(log_has(exp.decision_log(), "crash", "crash_instance"));
  EXPECT_TRUE(log_has(exp.decision_log(), "restart", "crash_instance"));
}

TEST(FaultInjector, CrashTriggersFrameworkRelocalization) {
  Experiment exp(crashable_chain(), short_config());
  auto& sora = exp.add_sora();
  sora.manage(ResourceKnob::entry(exp.app().service("mid")));
  FaultPlan plan;
  plan.add(crash_event("mid", sec(10), sec(20), false));
  exp.enable_faults(plan);
  exp.closed_loop(20, msec(50));
  exp.run();

  // Crash and restart each restart the localization window with a record
  // saying why.
  std::size_t relocalize = 0;
  for (const auto& rec : exp.decision_log().records()) {
    if (rec.action == "relocalize") {
      ++relocalize;
      EXPECT_EQ(rec.target, "mid");
      EXPECT_NE(rec.reason.find("topology changed"), std::string::npos);
    }
  }
  EXPECT_EQ(relocalize, 2u);
}

TEST(FaultInjector, CrashOnLastReplicaIsRefusedWithEvidence) {
  // chain_app leaves every service at 1 replica: crashing "mid" must be
  // refused, recorded, and the run must be unharmed.
  Experiment exp(testutil::chain_app(0.3), short_config());
  FaultPlan plan;
  plan.add(crash_event("mid", sec(10), sec(20), true));
  exp.enable_faults(plan);
  exp.closed_loop(10, msec(50));
  exp.run();

  EXPECT_EQ(exp.fault_injector()->crashes(), 0u);
  EXPECT_EQ(exp.fault_injector()->crashes_refused(), 1u);
  EXPECT_EQ(exp.app().service("mid")->active_replicas(), 1);
  EXPECT_TRUE(log_has(exp.decision_log(), "crash_refused", "crash_instance"));
  EXPECT_GT(exp.summary().completed, 0u);
}

TEST(FaultInjector, CrashOnUnknownServiceIsRefused) {
  Experiment exp(testutil::chain_app(0.3), short_config());
  FaultPlan plan;
  plan.add(crash_event("nope", sec(5), 0, false));
  exp.enable_faults(plan);
  exp.closed_loop(5, msec(50));
  exp.run();
  EXPECT_EQ(exp.fault_injector()->crashes_refused(), 1u);
  EXPECT_TRUE(log_has(exp.decision_log(), "crash_refused", "crash_instance"));
}

TEST(FaultInjector, DropInflightAbortsVisitsButConservesRequests) {
  Experiment exp(crashable_chain(), short_config(13));
  FaultPlan plan;
  plan.add(crash_event("mid", sec(10), sec(20), /*drop=*/true));
  exp.enable_faults(plan);
  exp.closed_loop(40, msec(20));
  exp.run();

  Service* mid = exp.app().service("mid");
  EXPECT_GT(mid->visits_dropped(), 0u);
  // Conservation: every injected request departed one way or another — the
  // closed loop would deadlock (and completions stop) if an aborted visit
  // lost its continuation.
  const ExperimentSummary s = exp.summary();
  EXPECT_GT(s.completed, 0u);
  EXPECT_GE(s.injected, s.completed);
  // And traffic kept flowing after the crash: completions at 60s must
  // exceed a pre-crash-only run's worth by a wide margin.
  EXPECT_GT(s.throughput_rps, 0.0);
}

TEST(FaultInjector, CpuStepChangesLimitWithoutAnnouncement) {
  Experiment exp(testutil::chain_app(0.3), short_config());
  auto& sora = exp.add_sora();
  ResourceKnob knob = ResourceKnob::entry(exp.app().service("mid"));
  sora.manage(knob);
  const int knob_before = knob.current_size();

  FaultEvent ev;
  ev.kind = FaultKind::kCpuLimitStep;
  ev.at = sec(10);
  ev.service = "mid";
  ev.cores = 1.0;  // chain_app gives mid 4 cores
  FaultPlan plan;
  plan.add(ev);
  exp.enable_faults(plan);
  exp.closed_loop(10, msec(50));
  exp.run_until(sec(12));

  EXPECT_DOUBLE_EQ(exp.app().service("mid")->cpu_limit(), 1.0);
  // Unannounced: no on_hardware_scaled, so no proportional knob rescale at
  // the step instant.
  EXPECT_EQ(knob.current_size(), knob_before);
  EXPECT_EQ(exp.fault_injector()->cpu_steps(), 1u);
  bool found = false;
  for (const auto& rec : exp.decision_log().records()) {
    if (rec.action == "cpu_step") {
      found = true;
      EXPECT_EQ(rec.fault_kind, "cpu_limit_step");
      EXPECT_DOUBLE_EQ(rec.old_cores, 4.0);
      EXPECT_DOUBLE_EQ(rec.new_cores, 1.0);
      EXPECT_NE(rec.reason.find("unannounced"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(FaultInjector, SpanDropoutSuppressesSpanReports) {
  Experiment exp(testutil::single_service(4.0, 16), short_config());
  auto& sora = exp.add_sora();
  sora.manage(ResourceKnob::entry(exp.app().service("svc")));
  FaultEvent ev;
  ev.kind = FaultKind::kSpanDropout;
  ev.at = sec(5);
  ev.duration = sec(30);
  ev.fraction = 1.0;  // drop everything in the window
  FaultPlan plan;
  plan.add(ev);
  exp.enable_faults(plan);
  exp.closed_loop(20, msec(20));
  exp.run();

  EXPECT_GT(exp.fault_injector()->spans_dropped(), 0u);
  EXPECT_TRUE(log_has(exp.decision_log(), "fault_start", "span_dropout"));
  EXPECT_TRUE(log_has(exp.decision_log(), "fault_end", "span_dropout"));
  // Dropping span *reports* must not corrupt trace assembly: requests keep
  // completing end to end.
  EXPECT_GT(exp.summary().completed, 0u);
}

TEST(FaultInjector, ScatterDropoutDiscardsBucketsBeforeEstimator) {
  Experiment exp(testutil::single_service(4.0, 16), short_config());
  auto& sora = exp.add_sora();
  sora.manage(ResourceKnob::entry(exp.app().service("svc")));
  FaultEvent ev;
  ev.kind = FaultKind::kScatterDropout;
  ev.at = sec(5);
  ev.duration = sec(40);
  ev.fraction = 1.0;
  FaultPlan plan;
  plan.add(ev);
  exp.enable_faults(plan);
  exp.closed_loop(20, msec(20));
  exp.run();

  EXPECT_GT(exp.fault_injector()->scatter_dropped(), 0u);
  EXPECT_TRUE(log_has(exp.decision_log(), "fault_start", "scatter_dropout"));
  EXPECT_TRUE(log_has(exp.decision_log(), "fault_end", "scatter_dropout"));
}

TEST(FaultInjector, ControlStallSkipsRoundsWithRecords) {
  ExperimentConfig cfg = short_config(11, sec(100));
  Experiment exp(testutil::chain_app(0.3), cfg);
  auto& sora = exp.add_sora();
  sora.manage(ResourceKnob::entry(exp.app().service("mid")));
  auto& firm = exp.add_firm();
  firm.manage(exp.app().service("mid"));

  FaultEvent ev;
  ev.kind = FaultKind::kControlStall;
  ev.at = sec(20);
  ev.duration = sec(60);
  FaultPlan plan;
  plan.add(ev);
  exp.enable_faults(plan);
  exp.closed_loop(20, msec(50));
  exp.run();

  EXPECT_EQ(exp.fault_injector()->stalls(), 1u);
  EXPECT_FALSE(sora.stalled());  // window ended
  std::size_t sora_stalled = 0, firm_stalled = 0;
  for (const auto& rec : exp.decision_log().records()) {
    if (rec.action != "stalled") continue;
    EXPECT_EQ(rec.fault_kind, "control_stall");
    EXPECT_NE(rec.reason.find("stalled"), std::string::npos);
    if (rec.controller == "sora") ++sora_stalled;
    if (rec.controller == "firm") ++firm_stalled;
  }
  // 60 s stall / 15 s period: the rounds at 30, 45, 60 and 75 s are
  // skipped, each with a record.
  EXPECT_GE(sora_stalled, 4u);
  EXPECT_GE(firm_stalled, 1u);
  EXPECT_TRUE(log_has(exp.decision_log(), "fault_start", "control_stall"));
  EXPECT_TRUE(log_has(exp.decision_log(), "fault_end", "control_stall"));
}

// The headline determinism claim: a faulted run is a pure function of its
// seed and plan — byte-identical decision-log JSONL and identical summary
// on rerun.
TEST(FaultInjector, FaultedRunIsByteIdenticalAcrossReruns) {
  auto run_once = [](std::string* jsonl) {
    ExperimentConfig cfg = short_config(77, sec(60));
    Experiment exp(crashable_chain(), cfg);
    auto& sora = exp.add_sora();
    sora.manage(ResourceKnob::entry(exp.app().service("mid")));
    exp.enable_faults(testutil::every_fault_kind(cfg.duration));
    exp.closed_loop(20, msec(50));
    exp.start_all();
    testutil::step_rounds(exp.sim(), sora, sec(5));
    exp.run();
    std::ostringstream os;
    exp.export_decision_log(os);
    *jsonl = os.str();
    return exp.summary();
  };
  std::string jsonl_a, jsonl_b;
  const ExperimentSummary a = run_once(&jsonl_a);
  const ExperimentSummary b = run_once(&jsonl_b);
  EXPECT_EQ(testutil::kinds_not_fired(jsonl_a), std::vector<std::string>{});
  EXPECT_EQ(jsonl_a, jsonl_b);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.goodput_rps, b.goodput_rps);
}

// Satellite 4: control rounds that cannot estimate must still leave a
// decision record with an explicit fallback reason.
TEST(FaultInjector, InsufficientScatterLeavesFallbackReason) {
  // No traffic at all: every control round sees an empty scatter window.
  ExperimentConfig cfg = short_config(5, sec(30));
  Experiment exp(testutil::single_service(), cfg);
  auto& sora = exp.add_sora();
  sora.manage(ResourceKnob::entry(exp.app().service("svc")));
  exp.run();

  bool saw_fallback = false;
  for (const auto& rec : exp.decision_log().records()) {
    if (rec.controller != "sora" || rec.action != "none") continue;
    EXPECT_FALSE(rec.reason.empty());
    if (rec.reason.find("no known-good knee yet") != std::string::npos) {
      saw_fallback = true;
      EXPECT_FALSE(rec.estimate_valid);
    }
  }
  EXPECT_TRUE(saw_fallback);
}

TEST(FaultInjector, StallRecordsAppearEvenWhenScatterWouldBeValid) {
  // Direct framework-level check of the stall path (satellite 4): a stalled
  // round appends exactly one "stalled" record and runs nothing else.
  ExperimentConfig cfg = short_config(6, sec(10));
  Experiment exp(testutil::single_service(), cfg);
  auto& sora = exp.add_sora();
  sora.manage(ResourceKnob::entry(exp.app().service("svc")));
  exp.start_all();
  const std::uint64_t rounds_before = sora.control_rounds();
  sora.set_stalled(true);
  sora.control_round();
  EXPECT_EQ(sora.control_rounds(), rounds_before + 1);
  ASSERT_FALSE(exp.decision_log().empty());
  const auto& rec = exp.decision_log().records().back();
  EXPECT_EQ(rec.action, "stalled");
  EXPECT_EQ(rec.controller, "sora");
  EXPECT_EQ(rec.fault_kind, "control_stall");
  sora.set_stalled(false);
}

}  // namespace
}  // namespace sora
