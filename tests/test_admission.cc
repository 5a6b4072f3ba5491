// Tests for the admission-control / overload-protection subsystem:
// controller mechanics (token bucket, AIMD, gradient, knee coupling,
// deadline shedding, priority classes), the end-to-end wiring through
// Experiment/Application/Service, shed-count reconciliation across the
// decision log / metrics registry / latency recorder, determinism, and
// composition with fault injection.
#include "admission/controller.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace sora {
namespace {

RequestMeta meta_with(Priority p = Priority::kHigh, SimTime deadline = 0) {
  RequestMeta m;
  m.priority = p;
  m.deadline = deadline;
  return m;
}

// ---------------------------------------------------------------------------
// Controller unit mechanics
// ---------------------------------------------------------------------------

TEST(AdmissionController, TokenBucketShedsWhenDrained) {
  AdmissionOptions opts;
  opts.policy = AdmissionPolicy::kTokenBucket;
  opts.tokens_per_sec = 10.0;
  opts.bucket_burst = 5.0;
  AdmissionController adm("svc", opts);

  int admits = 0, sheds = 0;
  for (int i = 0; i < 8; ++i) {
    const auto d = adm.decide(meta_with(), 0);
    if (d.admit) {
      adm.on_admit(0);
      ++admits;
    } else {
      EXPECT_STREQ(d.reason, "no_tokens");
      ++sheds;
    }
  }
  EXPECT_EQ(admits, 5);
  EXPECT_EQ(sheds, 3);
  EXPECT_EQ(adm.admitted(), 5u);
  EXPECT_EQ(adm.shed(), 3u);

  // One second later the bucket refilled to its burst cap.
  int refilled = 0;
  for (int i = 0; i < 8; ++i) {
    if (adm.decide(meta_with(), sec(1)).admit) {
      adm.on_admit(sec(1));
      ++refilled;
    }
  }
  EXPECT_EQ(refilled, 5);
}

TEST(AdmissionController, TokenBucketReservesHeadroomFromBatch) {
  AdmissionOptions opts;
  opts.policy = AdmissionPolicy::kTokenBucket;
  opts.tokens_per_sec = 10.0;
  opts.bucket_burst = 8.0;  // batch may use at most 3/4 of it: 6 tokens
  AdmissionController adm("svc", opts);

  int batch_admits = 0;
  while (adm.decide(meta_with(Priority::kBatch), 0).admit) {
    adm.on_admit(0);
    ++batch_admits;
  }
  EXPECT_EQ(batch_admits, 6);
  // High priority still gets the reserved quarter.
  EXPECT_TRUE(adm.decide(meta_with(Priority::kHigh), 0).admit);
  EXPECT_EQ(adm.shed_by_priority(Priority::kBatch), 1u);
  EXPECT_EQ(adm.shed_by_priority(Priority::kHigh), 0u);
}

TEST(AdmissionController, AimdBacksOffOnErrorsAndRecovers) {
  AdmissionOptions opts;
  opts.policy = AdmissionPolicy::kAimd;
  opts.initial_limit = 10.0;
  opts.min_limit = 2.0;
  opts.aimd_latency_threshold = msec(100);
  AdmissionController adm("svc", opts);
  ASSERT_DOUBLE_EQ(adm.current_limit(), 10.0);

  adm.on_departure(0, msec(10), /*ok=*/false);  // error -> backoff (x0.9)
  EXPECT_DOUBLE_EQ(adm.current_limit(), 9.0);
  adm.on_departure(0, msec(200), /*ok=*/true);  // slow -> backoff
  EXPECT_DOUBLE_EQ(adm.current_limit(), 8.1);

  const double before = adm.current_limit();
  adm.on_departure(0, msec(10), /*ok=*/true);  // fast -> additive increase
  EXPECT_GT(adm.current_limit(), before);
  EXPECT_LE(adm.current_limit(), before + 1.0);
}

TEST(AdmissionController, AimdNeverLeavesConfiguredBounds) {
  AdmissionOptions opts;
  opts.policy = AdmissionPolicy::kAimd;
  opts.initial_limit = 4.0;
  opts.min_limit = 2.0;
  opts.max_limit = 6.0;
  opts.aimd_latency_threshold = msec(100);
  AdmissionController adm("svc", opts);
  for (int i = 0; i < 20; ++i) adm.on_departure(0, msec(10), false);
  EXPECT_DOUBLE_EQ(adm.current_limit(), 2.0);
  for (int i = 0; i < 1000; ++i) adm.on_departure(0, msec(10), true);
  EXPECT_DOUBLE_EQ(adm.current_limit(), 6.0);
}

TEST(AdmissionController, GradientShrinksUnderLatencyInflation) {
  AdmissionOptions opts;
  opts.policy = AdmissionPolicy::kGradient;
  opts.initial_limit = 100.0;
  AdmissionController adm("svc", opts);

  // Establish a fast min-RTT, then sustained 10x-inflated RTTs.
  adm.on_departure(0, msec(5), true);
  for (int i = 0; i < 200; ++i) adm.on_departure(0, msec(50), true);
  EXPECT_LT(adm.current_limit(), 100.0);

  // Back to min-RTT-level latencies: the limit grows again.
  const double congested = adm.current_limit();
  for (int i = 0; i < 200; ++i) adm.on_departure(0, msec(5), true);
  EXPECT_GT(adm.current_limit(), congested);
}

TEST(AdmissionController, ConcurrencyLimitShedsAboveLimit) {
  AdmissionOptions opts;
  opts.policy = AdmissionPolicy::kGradient;
  opts.initial_limit = 3.0;
  AdmissionController adm("svc", opts);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(adm.decide(meta_with(), 0).admit);
    adm.on_admit(0);
  }
  const auto d = adm.decide(meta_with(), 0);
  EXPECT_FALSE(d.admit);
  EXPECT_STREQ(d.reason, "concurrency_limit");
  EXPECT_DOUBLE_EQ(d.limit, 3.0);

  // A departure frees a slot.
  adm.on_departure(0, msec(1), true);
  EXPECT_TRUE(adm.decide(meta_with(), 0).admit);
  EXPECT_EQ(adm.in_flight(), 2);
}

TEST(AdmissionController, KneeCoupledFollowsPublishedKnee) {
  AdmissionOptions opts;
  opts.policy = AdmissionPolicy::kKneeCoupled;
  opts.initial_limit = 64.0;
  opts.min_limit = 2.0;
  opts.knee_headroom = 1.0;
  AdmissionController adm("svc", opts);
  ASSERT_DOUBLE_EQ(adm.current_limit(), 64.0);

  adm.set_knee(12.0, sec(1));
  EXPECT_DOUBLE_EQ(adm.current_limit(), 12.0);
  EXPECT_DOUBLE_EQ(adm.knee(), 12.0);
  EXPECT_EQ(adm.knee_updates(), 1u);

  // Below-min knees clamp; zero/negative publications are ignored.
  adm.set_knee(0.5, sec(2));
  EXPECT_DOUBLE_EQ(adm.current_limit(), 2.0);
  adm.set_knee(0.0, sec(3));
  EXPECT_EQ(adm.knee_updates(), 2u);

  // Shed reason names the knee once one was published.
  for (int i = 0; i < 2; ++i) adm.on_admit(sec(3));
  const auto d = adm.decide(meta_with(), sec(3));
  EXPECT_FALSE(d.admit);
  EXPECT_STREQ(d.reason, "knee_limit");
}

TEST(AdmissionController, KneeUpdatesAppendLimitUpdateRecords) {
  obs::DecisionLog log;
  AdmissionOptions opts;
  opts.policy = AdmissionPolicy::kKneeCoupled;
  opts.initial_limit = 64.0;
  AdmissionController adm("svc", opts);
  adm.set_decision_log(&log);
  adm.set_knee(8.0, sec(1));
  adm.set_knee(8.0, sec(2));   // no change -> no record
  adm.set_knee(16.0, sec(3));
  ASSERT_EQ(log.count_action("limit_update"), 2u);
  const auto recs = log.by_action("limit_update");
  EXPECT_EQ(recs[0]->controller, "admission");
  EXPECT_EQ(recs[0]->policy, "knee_coupled");
  EXPECT_DOUBLE_EQ(recs[0]->admission_limit, 8.0);
  EXPECT_DOUBLE_EQ(recs[1]->admission_limit, 16.0);
  EXPECT_DOUBLE_EQ(recs[1]->knee_concurrency, 16.0);
}

TEST(AdmissionController, DeadlineShedUsesMinRttEstimate) {
  AdmissionOptions opts;
  opts.policy = AdmissionPolicy::kNone;  // isolate the deadline check
  AdmissionController adm("svc", opts);

  // No min-RTT yet: deadline requests are admitted (nothing to compare).
  EXPECT_TRUE(adm.decide(meta_with(Priority::kHigh, msec(1)), 0).admit);

  adm.on_admit(0);
  adm.on_departure(msec(20), msec(20), true);  // min-RTT estimate = 20ms
  ASSERT_EQ(adm.min_rtt(), msec(20));

  // 5ms of remaining budget < 20ms min-RTT -> shed with the deadline reason.
  const auto d = adm.decide(meta_with(Priority::kHigh, msec(30)), msec(25));
  EXPECT_FALSE(d.admit);
  EXPECT_STREQ(d.reason, "deadline");
  EXPECT_EQ(d.remaining_deadline, msec(5));

  // A request with enough remaining budget passes.
  EXPECT_TRUE(adm.decide(meta_with(Priority::kHigh, msec(60)), msec(25)).admit);
  // Already-expired deadlines shed too.
  EXPECT_FALSE(adm.decide(meta_with(Priority::kHigh, msec(10)), msec(25)).admit);
}

TEST(AdmissionController, BatchGatedAtUtilizationThreshold) {
  AdmissionOptions opts;
  opts.policy = AdmissionPolicy::kGradient;
  opts.initial_limit = 8.0;
  AdmissionController adm("svc", opts);

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(adm.decide(meta_with(Priority::kBatch), 0).admit);
    adm.on_admit(0);
  }
  // At 6/8 in flight (3/4), batch is out of headroom but high still fits.
  EXPECT_FALSE(adm.decide(meta_with(Priority::kBatch), 0).admit);
  EXPECT_TRUE(adm.decide(meta_with(Priority::kHigh), 0).admit);
  EXPECT_EQ(adm.shed_by_priority(Priority::kBatch), 1u);
}

TEST(AdmissionController, ShedCountsReconcileAcrossLogAndMetrics) {
  obs::DecisionLog log;
  obs::MetricsRegistry metrics;
  AdmissionOptions opts;
  opts.policy = AdmissionPolicy::kGradient;
  opts.initial_limit = 2.0;
  AdmissionController adm("svc", opts);
  adm.set_decision_log(&log);
  adm.set_metrics(&metrics);

  for (int i = 0; i < 10; ++i) {
    const auto d = adm.decide(meta_with(i % 2 ? Priority::kBatch
                                              : Priority::kHigh),
                              msec(i));
    if (d.admit) adm.on_admit(msec(i));
  }
  ASSERT_GT(adm.shed(), 0u);
  EXPECT_EQ(adm.admitted() + adm.shed(), 10u);
  EXPECT_EQ(adm.shed(), adm.shed_by_priority(Priority::kHigh) +
                            adm.shed_by_priority(Priority::kBatch));

  // Decision log: one "shed" record per shed, fully annotated.
  EXPECT_EQ(log.count_action("shed"), adm.shed());
  for (const auto* rec : log.by_action("shed")) {
    EXPECT_EQ(rec->controller, "admission");
    EXPECT_EQ(rec->target, "svc");
    EXPECT_EQ(rec->policy, "gradient");
    EXPECT_FALSE(rec->reason.empty());
    EXPECT_GT(rec->admission_limit, 0.0);
    EXPECT_TRUE(rec->priority == "high" || rec->priority == "batch");
  }

  // Metrics: labeled shed counters sum to the same number; admits match.
  const auto snap = metrics.snapshot();
  double metric_sheds = 0.0, metric_admits = 0.0;
  for (const auto& s : snap.series) {
    if (s.name == "admission.shed") metric_sheds += s.value;
    if (s.name == "admission.admitted") metric_admits += s.value;
  }
  EXPECT_DOUBLE_EQ(metric_sheds, static_cast<double>(adm.shed()));
  EXPECT_DOUBLE_EQ(metric_admits, static_cast<double>(adm.admitted()));
  const auto* gauge = snap.find("admission.limit", {{"service", "svc"}});
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value, adm.current_limit());
}

// ---------------------------------------------------------------------------
// End-to-end wiring through Experiment / Application / Service
// ---------------------------------------------------------------------------

TEST(AdmissionExperiment, UnknownServiceThrows) {
  ExperimentConfig cfg;
  cfg.duration = sec(1);
  Experiment exp(testutil::single_service(), cfg);
  EXPECT_THROW(exp.enable_admission("nope"), std::invalid_argument);
}

/// Overloaded single service with a tight concurrency limit on the entry
/// service: front-door sheds, counted everywhere.
struct FrontDoorRun {
  ExperimentSummary summary;
  std::uint64_t ctrl_shed = 0;
  std::uint64_t ctrl_admitted = 0;
  std::uint64_t app_shed = 0;
  std::uint64_t log_sheds = 0;
  double metric_sheds = 0.0;
  std::string decisions_jsonl;
};

FrontDoorRun run_front_door(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.duration = sec(20);
  cfg.sla = msec(200);
  cfg.seed = seed;
  Experiment exp(testutil::single_service(2.0, 8, 4000, 1000), cfg);
  AdmissionOptions ao;
  ao.policy = AdmissionPolicy::kGradient;
  ao.initial_limit = 4.0;
  ao.max_limit = 8.0;
  AdmissionController& adm = exp.enable_admission("svc", ao);
  exp.closed_loop(200, msec(50));
  exp.run();

  FrontDoorRun out;
  out.summary = exp.summary();
  out.ctrl_shed = adm.shed();
  out.ctrl_admitted = adm.admitted();
  out.app_shed = exp.app().shed();
  out.log_sheds = exp.decision_log().count_action("shed");
  const auto snap = exp.app().metrics().snapshot();
  for (const auto& s : snap.series) {
    if (s.name == "admission.shed") out.metric_sheds += s.value;
  }
  std::ostringstream os;
  exp.export_decision_log(os);
  out.decisions_jsonl = os.str();
  return out;
}

TEST(AdmissionExperiment, FrontDoorShedsReconcileEverywhere) {
  const FrontDoorRun r = run_front_door(7);
  ASSERT_GT(r.ctrl_shed, 0u) << "overload must trigger sheds";
  // Entry-service sheds happen at the application's front door.
  EXPECT_EQ(r.ctrl_shed, r.app_shed);
  // One decision-log record and one metrics increment per shed.
  EXPECT_EQ(r.log_sheds, r.ctrl_shed);
  EXPECT_DOUBLE_EQ(r.metric_sheds, static_cast<double>(r.ctrl_shed));
  // The client-side recorder counts every shed (excluded from percentiles).
  EXPECT_EQ(r.summary.shed, r.ctrl_shed);
  // Nothing is lost: every injected request was admitted or shed, and all
  // admitted ones either completed or were still in flight at the horizon.
  EXPECT_EQ(r.summary.injected, r.ctrl_admitted + r.ctrl_shed);
  EXPECT_GE(r.ctrl_admitted, r.summary.completed);
  // Shed records carry the full annotation in the exported JSONL.
  EXPECT_NE(r.decisions_jsonl.find("\"action\":\"shed\""), std::string::npos);
  EXPECT_NE(r.decisions_jsonl.find("\"policy\":\"gradient\""),
            std::string::npos);
}

TEST(AdmissionExperiment, ReRunIsByteIdentical) {
  const FrontDoorRun a = run_front_door(11);
  const FrontDoorRun b = run_front_door(11);
  EXPECT_EQ(a.summary.injected, b.summary.injected);
  EXPECT_EQ(a.summary.completed, b.summary.completed);
  EXPECT_EQ(a.summary.shed, b.summary.shed);
  EXPECT_EQ(a.summary.p99_ms, b.summary.p99_ms);
  EXPECT_EQ(a.summary.goodput_rps, b.summary.goodput_rps);
  EXPECT_EQ(a.decisions_jsonl, b.decisions_jsonl);
  // Different seeds genuinely differ (guards against constant outputs).
  const FrontDoorRun c = run_front_door(12);
  EXPECT_NE(a.decisions_jsonl, c.decisions_jsonl);
}

/// Admission installed mid-chain: sheds close the downstream span as a
/// rejected error response and fail the whole request.
TEST(AdmissionExperiment, MidChainShedsMarkSpansRejected) {
  ExperimentConfig cfg;
  cfg.duration = sec(20);
  cfg.sla = msec(200);
  cfg.seed = 3;
  Experiment exp(testutil::chain_app(0.2), cfg);
  AdmissionOptions ao;
  ao.policy = AdmissionPolicy::kGradient;
  ao.initial_limit = 2.0;
  ao.max_limit = 4.0;
  AdmissionController& adm = exp.enable_admission("mid", ao);
  exp.closed_loop(150, msec(50));
  exp.run();

  ASSERT_GT(adm.shed(), 0u);
  // Client view: every mid-shed fails exactly one request. Requests shed at
  // mid right before the horizon may still be finishing their (error)
  // response at "front" when the run ends, so reconcile modulo in-flight.
  EXPECT_LE(exp.summary().shed, adm.shed());
  EXPECT_GE(exp.summary().shed + exp.app().in_flight(), adm.shed());
  EXPECT_EQ(exp.app().shed(), 0u);  // no front-door sheds on "front"

  const ServiceId mid = exp.app().service("mid")->id();
  std::uint64_t rejected_spans = 0, rejected_traces = 0;
  exp.warehouse().for_each_in_window(0, cfg.duration, [&](const Trace& t) {
    if (t.rejected()) ++rejected_traces;
    for (const Span& s : t.spans) {
      if (s.rejected) {
        ++rejected_spans;
        EXPECT_EQ(s.service, mid);
        EXPECT_TRUE(s.failed) << "rejections are error responses";
      }
    }
  });
  EXPECT_GT(rejected_spans, 0u);
  EXPECT_EQ(rejected_spans, rejected_traces);  // one shed hop per rejection
}

TEST(AdmissionExperiment, BatchPriorityShedsBeforeHigh) {
  ExperimentConfig cfg;
  cfg.duration = sec(20);
  cfg.sla = msec(200);
  cfg.seed = 9;
  ApplicationConfig app = testutil::single_service(2.0, 8, 4000, 1000);
  app.services[0].with_demand(1, 4000, 1000, 0.0);
  app.entry_service[1] = "svc";
  Experiment exp(std::move(app), cfg);

  AdmissionOptions ao;
  ao.policy = AdmissionPolicy::kGradient;
  ao.initial_limit = 4.0;
  ao.max_limit = 8.0;
  AdmissionController& adm = exp.enable_admission("svc", ao);

  RequestMix mix{{0, 1.0}, {1, 1.0}};
  mix.with_priority(1, Priority::kBatch);
  auto& gen = exp.closed_loop(200, msec(50), mix);
  std::map<int, std::uint64_t> ok_by_class, all_by_class;
  gen.set_observer([&](SimTime, int cls, SimTime, bool ok) {
    ++all_by_class[cls];
    if (ok) ++ok_by_class[cls];
  });
  exp.run();

  ASSERT_GT(adm.shed_by_priority(Priority::kBatch), 0u);
  // Batch loses headroom first: its shed share must dominate.
  EXPECT_GT(adm.shed_by_priority(Priority::kBatch),
            adm.shed_by_priority(Priority::kHigh));
  // And the high class keeps a better admitted (ok) fraction.
  ASSERT_GT(all_by_class[0], 0u);
  ASSERT_GT(all_by_class[1], 0u);
  const double high_ok = static_cast<double>(ok_by_class[0]) /
                         static_cast<double>(all_by_class[0]);
  const double batch_ok = static_cast<double>(ok_by_class[1]) /
                          static_cast<double>(all_by_class[1]);
  EXPECT_GT(high_ok, batch_ok);
}

/// Sora publishes its knee estimate into a knee-coupled controller on the
/// managed service.
TEST(AdmissionExperiment, SoraPublishesKneeIntoController) {
  ExperimentConfig cfg;
  cfg.duration = sec(60);
  cfg.seed = 21;
  // Varying load over a generous pool on a small CPU: the concurrency /
  // goodput scatter spans the knee, so the SCG fit converges quickly.
  Experiment exp(testutil::single_service(2.0, 16, 2000, 1000, 0.5), cfg);

  auto& fw = exp.add_sora();
  fw.manage(ResourceKnob::entry(exp.app().service("svc")));

  AdmissionOptions ao;
  ao.policy = AdmissionPolicy::kKneeCoupled;
  ao.initial_limit = 256.0;
  AdmissionController& adm = exp.enable_admission("svc", ao);

  auto& users = exp.closed_loop(10, msec(50));
  users.follow_trace(
      WorkloadTrace(TraceShape::kLargeVariation, cfg.duration, 10, 60));
  exp.start_all();
  testutil::step_rounds(exp.sim(), fw, sec(5));
  exp.run();

  EXPECT_GT(adm.knee_updates(), 0u) << "Sora never published a knee";
  EXPECT_GT(adm.knee(), 0.0);
  EXPECT_LT(adm.current_limit(), 256.0)
      << "knee coupling never tightened the cap";
}

// ---------------------------------------------------------------------------
// Sweep parity and fault composition
// ---------------------------------------------------------------------------

struct AdmittedFaultedRun {
  ExperimentSummary summary;
  std::uint64_t ctrl_shed = 0;
  std::string decisions_jsonl;
};

/// An admission-enabled run under a scripted FaultPlan and an active Sora
/// loop: the strictest determinism surface this subsystem touches.
AdmittedFaultedRun run_admitted_faulted_point(std::size_t index) {
  ExperimentConfig cfg;
  cfg.duration = sec(30);
  cfg.sla = msec(100);
  cfg.seed = 900 + index;
  ApplicationConfig app = testutil::chain_app(0.4);
  app.services[1].with_replicas(2);  // "mid" can crash without refusal
  Experiment exp(app, cfg);

  auto& fw = exp.add_sora();
  fw.manage(ResourceKnob::entry(exp.app().service("mid")));

  AdmissionOptions ao;
  ao.policy = AdmissionPolicy::kGradient;
  ao.initial_limit = 6.0;
  ao.max_limit = 32.0;
  AdmissionController& adm = exp.enable_admission("mid", ao);

  exp.enable_faults(testutil::every_fault_kind(
      cfg.duration, sec(static_cast<SimTime>(index))));

  exp.closed_loop(40 + static_cast<int>(index) * 10, msec(50));
  exp.start_all();
  testutil::step_rounds(exp.sim(), fw, sec(5));
  exp.run();

  AdmittedFaultedRun out;
  out.summary = exp.summary();
  out.ctrl_shed = adm.shed();
  std::ostringstream os;
  exp.export_decision_log(os);
  out.decisions_jsonl = os.str();
  return out;
}

bool same_sim_outputs(const ExperimentSummary& a, const ExperimentSummary& b) {
  return a.injected == b.injected && a.completed == b.completed &&
         a.shed == b.shed && a.mean_ms == b.mean_ms && a.p50_ms == b.p50_ms &&
         a.p95_ms == b.p95_ms && a.p99_ms == b.p99_ms &&
         a.goodput_rps == b.goodput_rps &&
         a.throughput_rps == b.throughput_rps &&
         a.good_fraction == b.good_fraction &&
         a.slo_episodes == b.slo_episodes;
}

TEST(AdmissionSweep, ParallelMatchesSerialWithFaultsByteForByte) {
  constexpr std::size_t kRuns = 4;
  SweepRunner serial(1);
  SweepRunner parallel(4);
  const auto s = serial.map(kRuns, run_admitted_faulted_point);
  const auto p = parallel.map(kRuns, run_admitted_faulted_point);
  ASSERT_EQ(s.size(), kRuns);
  bool any_shed = false;
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_TRUE(same_sim_outputs(s[i].summary, p[i].summary))
        << "admitted+faulted run " << i << " diverged";
    EXPECT_EQ(s[i].ctrl_shed, p[i].ctrl_shed);
    EXPECT_EQ(s[i].decisions_jsonl, p[i].decisions_jsonl)
        << "decision log of run " << i << " diverged";
    // Both subsystems must actually be active in the witness log, with
    // every fault kind fired.
    EXPECT_EQ(testutil::kinds_not_fired(s[i].decisions_jsonl),
              std::vector<std::string>{})
        << "admitted+faulted run " << i;
    if (s[i].ctrl_shed > 0) any_shed = true;
  }
  EXPECT_TRUE(any_shed) << "no run shed anything; parity proves too little";
  EXPECT_NE(s[0].decisions_jsonl, s[1].decisions_jsonl);
}

// ---------------------------------------------------------------------------
// Load balancer vs mid-window crash/restart (FaultInjector composition)
// ---------------------------------------------------------------------------

TEST(LoadBalancerFaults, NoRequestsRoutedToCrashedReplica) {
  ExperimentConfig cfg;
  cfg.duration = sec(30);
  cfg.sla = msec(200);
  cfg.seed = 17;
  ApplicationConfig app = testutil::chain_app(0.2);
  app.services[1].with_replicas(2);
  Experiment exp(app, cfg);

  const SimTime crash_at = sec(10);
  const SimTime downtime = sec(10);
  FaultPlan plan;
  FaultEvent ev;
  ev.kind = FaultKind::kCrashInstance;
  ev.at = crash_at;
  ev.service = "mid";
  ev.instance = 0;
  ev.drop_inflight = true;
  ev.duration = downtime;
  plan.add(ev);
  exp.enable_faults(plan);

  // Probe mid-window: replica 0 must be down, exactly one replica active.
  Service* mid = exp.app().service("mid");
  bool probed = false;
  exp.sim().schedule_at(sec(15), [&] {
    probed = true;
    EXPECT_FALSE(mid->instance(0).active());
    EXPECT_EQ(mid->active_replicas(), 1);
  });

  exp.closed_loop(40, msec(50));
  exp.run();
  ASSERT_TRUE(probed);

  const ServiceId mid_id = mid->id();
  const InstanceId dead = mid->instance(0).id();
  std::uint64_t on_dead_during_outage = 0;
  std::uint64_t on_dead_after_restore = 0;
  std::uint64_t on_peer_during_outage = 0;
  exp.warehouse().for_each_in_window(0, cfg.duration, [&](const Trace& t) {
    for (const Span& s : t.spans) {
      if (s.service != mid_id) continue;
      if (s.instance == dead) {
        if (s.arrival > crash_at && s.arrival < crash_at + downtime) {
          ++on_dead_during_outage;
        } else if (s.arrival >= crash_at + downtime) {
          ++on_dead_after_restore;
        }
      } else if (s.arrival > crash_at && s.arrival < crash_at + downtime) {
        ++on_peer_during_outage;
      }
    }
  });
  // The load balancer never routed into the outage window...
  EXPECT_EQ(on_dead_during_outage, 0u);
  // ...while the surviving replica carried the traffic...
  EXPECT_GT(on_peer_during_outage, 0u);
  // ...and the restored replica rejoined the rotation.
  EXPECT_GT(on_dead_after_restore, 0u);

  // Counters reconcile: the crash dropped in-flight visits (recorded on the
  // service), and every injected request is accounted for.
  EXPECT_GT(mid->visits_dropped(), 0u);
  const ExperimentSummary sum = exp.summary();
  EXPECT_EQ(sum.injected,
            sum.completed + sum.shed + exp.app().in_flight());
  // Crash aborts are not admission sheds: no rejection was recorded.
  EXPECT_EQ(sum.shed, 0u);
  EXPECT_EQ(exp.decision_log().count_action("shed"), 0u);
}

}  // namespace
}  // namespace sora
