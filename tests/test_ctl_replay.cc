// Determinism guarantees of the ctl plane:
//   1. An idle plane (safepoints ticking, server bound, nobody connected)
//      changes nothing about simulation results — and parallel sweeps with
//      ctl enabled stay bit-identical to serial ones.
//   2. A recorded command stream replays byte-for-byte: re-running with
//      set_script(commands_from_log(recorded_log)) reproduces the full
//      decision log and summary of the recorded run exactly.
#include "ctl/plane.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "fault/fault_plan.h"
#include "harness/causal_lab.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "obs/decision_log.h"
#include "test_util.h"

namespace sora {
namespace {

bool same_sim_outputs(const ExperimentSummary& a, const ExperimentSummary& b) {
  return a.injected == b.injected && a.completed == b.completed &&
         a.shed == b.shed && a.mean_ms == b.mean_ms && a.p50_ms == b.p50_ms &&
         a.p95_ms == b.p95_ms && a.p99_ms == b.p99_ms &&
         a.goodput_rps == b.goodput_rps &&
         a.throughput_rps == b.throughput_rps &&
         a.good_fraction == b.good_fraction;
}

struct RunOutput {
  ExperimentSummary summary;
  std::string decisions_jsonl;
  std::vector<ctl::TimedCommand> recorded_commands;
  std::uint64_t applied = 0;
  std::uint64_t rejected = 0;
};

/// One run of the reference scenario: chain app (2-replica mid so a crash
/// is survivable), gradient admission on mid, armed (empty-plan) fault
/// injector, headless ctl plane with 500 ms safepoints. Commands arrive
/// either as a pre-run queue preload (the "recorded" run — the queue is the
/// exact path live /ctl requests take) or as a replay script.
RunOutput run_scenario(const std::vector<std::string>& preload,
                       const std::vector<ctl::TimedCommand>* script) {
  ExperimentConfig cfg;
  cfg.duration = sec(30);
  cfg.sla = msec(100);
  cfg.seed = 11;
  ApplicationConfig app = testutil::chain_app(0.4);
  app.services[1].with_replicas(2);
  Experiment exp(app, cfg);
  exp.closed_loop(12, msec(100));

  AdmissionOptions ao;
  ao.policy = AdmissionPolicy::kGradient;
  exp.enable_admission("mid", ao);
  exp.enable_faults(FaultPlan());  // armed injector, no scripted events

  ctl::CtlOptions copt;
  copt.start_server = false;  // headless: pure safepoint/replay machinery
  exp.enable_ctl(copt);
  exp.start_all();

  ctl::CtlPlane* plane = exp.ctl_plane();
  for (const std::string& cmd : preload) plane->queue().push(cmd);
  if (script != nullptr) plane->set_script(*script);
  exp.run();

  RunOutput out;
  out.summary = exp.summary();
  std::ostringstream os;
  exp.export_decision_log(os);
  out.decisions_jsonl = os.str();
  out.recorded_commands = ctl::CtlPlane::commands_from_log(exp.decision_log());
  out.applied = plane->commands_applied();
  out.rejected = plane->commands_rejected();
  return out;
}

TEST(CtlReplay, RecordedCommandStreamReplaysByteForByte) {
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::kOff);  // silence the WARN from the bogus command

  // The recorded run: a crash, an admission cap, and a command that gets
  // rejected (rejections are recorded too, and must replay identically).
  const std::vector<std::string> commands = {
      "fault crash mid 5", "cap mid 6", "frobnicate the widget"};
  const RunOutput recorded = run_scenario(commands, nullptr);
  EXPECT_EQ(recorded.applied, 2u);
  EXPECT_EQ(recorded.rejected, 1u);
  ASSERT_EQ(recorded.recorded_commands.size(), commands.size());
  for (std::size_t i = 0; i < commands.size(); ++i) {
    EXPECT_EQ(recorded.recorded_commands[i].text, commands[i]);
    EXPECT_GT(recorded.recorded_commands[i].at, 0);
  }
  // The crash actually happened and was logged by the injector.
  EXPECT_NE(recorded.decisions_jsonl.find("\"controller\":\"fault\""),
            std::string::npos);
  EXPECT_NE(recorded.decisions_jsonl.find("\"controller\":\"ctl\""),
            std::string::npos);

  // The replay: same scenario, commands re-applied from the recorded log.
  const RunOutput replayed = run_scenario({}, &recorded.recorded_commands);
  EXPECT_TRUE(same_sim_outputs(recorded.summary, replayed.summary));
  EXPECT_EQ(recorded.decisions_jsonl, replayed.decisions_jsonl)
      << "replay diverged from the recorded run";

  // Non-vacuity: the commands had real effect — a command-free run of the
  // same scenario produces a different history.
  const RunOutput baseline = run_scenario({}, nullptr);
  EXPECT_NE(baseline.decisions_jsonl, recorded.decisions_jsonl);
  EXPECT_FALSE(same_sim_outputs(baseline.summary, recorded.summary));

  set_log_level(old_level);
}

TEST(CtlReplay, ScriptedPauseResumePairNeverHangsHeadless) {
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::kOff);
  // pause+resume recorded at the same safepoint replay within one drain —
  // the wait loop is never entered, so a headless replay cannot hang.
  std::vector<ctl::TimedCommand> script = {{sec(1), "pause"},
                                           {sec(1), "resume"}};
  const RunOutput out = run_scenario({}, &script);
  EXPECT_EQ(out.applied, 2u);
  EXPECT_NE(out.decisions_jsonl.find("\"command\":\"pause\""),
            std::string::npos);
  EXPECT_NE(out.decisions_jsonl.find("\"command\":\"resume\""),
            std::string::npos);
  set_log_level(old_level);
}

TEST(CtlReplay, LonePauseAutoResumesWithoutAServer) {
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::kOff);
  // A pause with no server attached would wait forever for a resume that
  // cannot arrive; the plane detects this and resumes by itself.
  std::vector<ctl::TimedCommand> script = {{sec(1), "pause"}};
  const RunOutput out = run_scenario({}, &script);
  EXPECT_EQ(out.applied, 1u);
  EXPECT_GT(out.summary.completed, 0u);
  set_log_level(old_level);
}

TEST(CtlReplay, CommandsFromLogExtractsOnlyCtlRecords) {
  obs::DecisionLog log;
  obs::ControlDecisionRecord sora_rec;
  sora_rec.at = sec(1);
  sora_rec.controller = "sora";
  sora_rec.action = "resize";
  log.append(sora_rec);

  obs::ControlDecisionRecord ctl_rec;
  ctl_rec.at = sec(2);
  ctl_rec.controller = "ctl";
  ctl_rec.action = "applied";
  ctl_rec.command = "loglevel info";
  log.append(ctl_rec);

  obs::ControlDecisionRecord fault_rec;
  fault_rec.at = sec(3);
  fault_rec.controller = "fault";
  fault_rec.action = "crash";
  log.append(fault_rec);

  const auto script = ctl::CtlPlane::commands_from_log(log);
  ASSERT_EQ(script.size(), 1u);
  EXPECT_EQ(script[0].at, sec(2));
  EXPECT_EQ(script[0].text, "loglevel info");
}

// -- causal record determinism -----------------------------------------------

// The causal profiler's records (one causal_effect per what-if plus the
// causal_rank verdict) ride the same guarantee as ctl command replay: two
// independent profiling rounds of the same scenario export byte-identical
// decision logs, causal records included.
TEST(CtlReplay, CausalRoundDecisionLogExportsByteForByte) {
  const auto builder = [] {
    ExperimentConfig cfg;
    cfg.duration = sec(20);
    cfg.sla = msec(100);
    cfg.seed = 23;
    auto exp = std::make_unique<Experiment>(testutil::chain_app(0.4), cfg);
    exp->closed_loop(12, msec(100));
    return exp;
  };
  CausalLabOptions opts;
  opts.checkpoint = sec(8);
  opts.speedup_factors = {0.9};
  opts.pool_delta = 0;
  opts.services = {"mid"};
  opts.threads = 2;
  opts.scenario = "replay";

  CausalLab first(builder, opts);
  CausalLab second(builder, opts);
  first.run();
  second.run();

  std::ostringstream a, b;
  first.baseline().export_decision_log(a);
  second.baseline().export_decision_log(b);
  EXPECT_EQ(a.str(), b.str()) << "causal round export is not reproducible";
  EXPECT_NE(a.str().find("\"action\":\"causal_rank\""), std::string::npos);
  EXPECT_NE(a.str().find("\"action\":\"causal_effect\""), std::string::npos);
  EXPECT_NE(a.str().find("\"causal_rank\":"), std::string::npos);
}

// -- sweep parity with ctl enabled -------------------------------------------

/// The test_sweep run_point, plus a full ctl plane with a live (ephemeral,
/// idle) server attached.
ExperimentSummary run_point_with_ctl(std::size_t index) {
  ExperimentConfig cfg;
  cfg.duration = sec(10);
  cfg.sla = msec(100);
  cfg.seed = 100 + index;
  Experiment exp(testutil::chain_app(0.4), cfg);
  exp.closed_loop(10 + static_cast<int>(index) * 5, msec(100));
  ctl::CtlOptions copt;
  copt.port = 0;
  exp.enable_ctl(copt);
  exp.run();
  return exp.summary();
}

ExperimentSummary run_point_plain(std::size_t index) {
  ExperimentConfig cfg;
  cfg.duration = sec(10);
  cfg.sla = msec(100);
  cfg.seed = 100 + index;
  Experiment exp(testutil::chain_app(0.4), cfg);
  exp.closed_loop(10 + static_cast<int>(index) * 5, msec(100));
  exp.run();
  return exp.summary();
}

// Enabling the plane (safepoints + bound-but-idle server) must not change
// simulation results at all: the safepoint draws no randomness and mutates
// nothing unless a command is pending.
TEST(CtlSweepParity, IdlePlaneDoesNotPerturbResults) {
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(same_sim_outputs(run_point_plain(i), run_point_with_ctl(i)))
        << "ctl plane perturbed run " << i;
  }
}

// The PR's headline parity claim: serial and 4-thread sweeps of
// ctl-enabled experiments match bit for bit (each worker binds its own
// ephemeral server; ports are wall-side state the sim never observes).
TEST(CtlSweepParity, ParallelCtlEnabledSweepMatchesSerialBitForBit) {
  constexpr std::size_t kRuns = 6;
  SweepRunner serial(1);
  SweepRunner parallel(4);
  const auto s = serial.map(kRuns, run_point_with_ctl);
  const auto p = parallel.map(kRuns, run_point_with_ctl);
  ASSERT_EQ(s.size(), kRuns);
  ASSERT_EQ(p.size(), kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_TRUE(same_sim_outputs(s[i], p[i]))
        << "ctl-enabled run " << i << " diverged";
  }
  // Distinct configs still produce distinct outputs (guards against the
  // parity check comparing constants).
  EXPECT_FALSE(same_sim_outputs(s[0], s[1]));
}

}  // namespace
}  // namespace sora
