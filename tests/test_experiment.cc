// Tests for the experiment harness.
#include "harness/experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "apps/sock_shop.h"
#include "test_util.h"
#include "trace/critical_path.h"

namespace sora {
namespace {

TEST(Experiment, RunsClosedLoopAndSummarizes) {
  ExperimentConfig cfg;
  cfg.duration = sec(20);
  cfg.sla = msec(100);
  Experiment exp(testutil::chain_app(0.4), cfg);
  exp.closed_loop(20, msec(100));
  exp.run();
  const ExperimentSummary s = exp.summary();
  EXPECT_GT(s.injected, 100u);
  // Closed loop: at most one request in flight per user at the cutoff.
  EXPECT_LE(s.injected - s.completed, 20u);
  EXPECT_GT(s.throughput_rps, 0.0);
  EXPECT_GT(s.goodput_rps, 0.0);
  EXPECT_GT(s.p99_ms, s.p50_ms);
  EXPECT_GT(s.good_fraction, 0.9);  // lightly loaded chain well within 100ms
}

TEST(Experiment, OpenLoopDrivesTrace) {
  ExperimentConfig cfg;
  cfg.duration = sec(10);
  Experiment exp(testutil::chain_app(0.4), cfg);
  const WorkloadTrace trace(TraceShape::kSlowlyVarying, sec(10), 100, 100);
  exp.open_loop(trace);
  exp.run();
  EXPECT_NEAR(static_cast<double>(exp.summary().injected), 1000.0, 150.0);
}

TEST(Experiment, TimelineTracksService) {
  ExperimentConfig cfg;
  cfg.duration = sec(10);  // ten 1 s timeline buckets
  Experiment exp(testutil::chain_app(0.4), cfg);
  exp.closed_loop(10, msec(100));
  exp.track_service("mid");
  exp.run();
  const auto& tl = exp.timeline("mid");
  ASSERT_GE(tl.size(), 9u);
  for (const auto& p : tl) {
    EXPECT_GT(p.util_pct, 0.0);
    EXPECT_DOUBLE_EQ(p.limit_pct, 400.0);
    EXPECT_EQ(p.replicas, 1);
    EXPECT_GT(p.entry_capacity, 0);
  }
}

TEST(Experiment, TimelineTracksEdgePool) {
  ExperimentConfig cfg;
  cfg.duration = sec(5);
  Experiment exp(testutil::edge_pool_app(4, 1000, 0.2), cfg);
  exp.closed_loop(8, msec(20));
  exp.track_service("caller", "db");
  exp.run();
  const auto& tl = exp.timeline("caller");
  ASSERT_GE(tl.size(), 4u);
  bool any_edge_use = false;
  for (const auto& p : tl) {
    EXPECT_EQ(p.edge_capacity, 4);
    if (p.edge_in_use > 0) any_edge_use = true;
  }
  EXPECT_TRUE(any_edge_use);
}

TEST(Experiment, UnknownServiceThrows) {
  ExperimentConfig cfg;
  Experiment exp(testutil::chain_app(), cfg);
  EXPECT_THROW(exp.track_service("nope"), std::invalid_argument);
  EXPECT_THROW(exp.timeline("front"), std::invalid_argument);
}

TEST(Experiment, LinkForwardsScaleActions) {
  ExperimentConfig cfg;
  cfg.duration = sec(60);
  Experiment exp(testutil::single_service(1.0, 10, 4000, 2000, 0.4), cfg);
  exp.closed_loop(50, msec(50));

  auto& vpa = exp.add_vpa();
  vpa.manage(exp.app().service("svc"));

  auto& sora = exp.add_sora();
  ResourceKnob knob = ResourceKnob::entry(exp.app().service("svc"));
  sora.manage(knob);
  Experiment::link(vpa, sora);

  exp.run();
  // VPA scaled up; the linked framework must have reacted with proportional
  // soft-resource rescales (the final size depends on where the SCG knee
  // settles once the hardware stabilizes).
  bool scaled = false;
  for (const ControlAction& a : vpa.actions()) {
    if (a.kind == ControlAction::Kind::kCores) scaled = true;
  }
  ASSERT_TRUE(scaled);
  bool proportional = false;
  for (const AdaptAction& a : sora.adapter().history()) {
    if (a.type == AdaptAction::Type::kProportional) proportional = true;
  }
  EXPECT_TRUE(proportional);
}

// The scaler's listener fires inside its emit(), before its own decision
// record: Sora's proportional re-adaptation is logged immediately ahead of
// the scale it reacts to.
TEST(Experiment, LinkRecordsProportionalBeforeScaleUp) {
  ExperimentConfig cfg;
  Experiment exp(testutil::single_service(1.0, 10, 4000, 2000, 0.4), cfg);
  auto& vpa = exp.add_vpa();
  vpa.manage(exp.app().service("svc"));
  auto& sora = exp.add_sora();
  sora.manage(ResourceKnob::entry(exp.app().service("svc")));
  Experiment::link(vpa, sora);
  // Ten ~6 ms requests keep the single core busy through the first 10 ms,
  // so the round reads utilization 1.0, above VPA's scale-up threshold.
  for (int i = 0; i < 10; ++i) exp.app().inject(0, [](SimTime) {});
  exp.sim().run_until(msec(10));

  const std::span<const ControlAction> acts = vpa.round();
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].kind, ControlAction::Kind::kCores);
  EXPECT_EQ(acts[0].target, "svc");
  EXPECT_DOUBLE_EQ(acts[0].old_cores, 1.0);
  EXPECT_DOUBLE_EQ(acts[0].new_cores, 2.0);

  const auto& recs = exp.decision_log().records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].controller, "sora");
  EXPECT_EQ(recs[0].action, "proportional");
  EXPECT_EQ(recs[0].target, "svc/threads");
  EXPECT_DOUBLE_EQ(recs[0].old_cores, 1.0);
  EXPECT_DOUBLE_EQ(recs[0].new_cores, 2.0);
  EXPECT_EQ(recs[1].controller, "k8s-vpa");
  EXPECT_EQ(recs[1].action, "scale_up");
  EXPECT_EQ(recs[1].target, "svc");
}

TEST(Experiment, ZeroRequestRunPropagatesNoSample) {
  // A run whose window saw zero requests must report kNoSample (NaN)
  // percentiles — not a fake 0 ms tail that reads as "infinitely fast".
  ExperimentConfig cfg;
  cfg.duration = sec(5);
  Experiment exp(testutil::chain_app(0.4), cfg);
  exp.run();  // no generators attached
  const ExperimentSummary s = exp.summary();
  EXPECT_EQ(s.injected, 0u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_TRUE(std::isnan(s.p50_ms));
  EXPECT_TRUE(std::isnan(s.p95_ms));
  EXPECT_TRUE(std::isnan(s.p99_ms));
  // Rate-style aggregates stay well-defined at zero.
  EXPECT_DOUBLE_EQ(s.throughput_rps, 0.0);
  EXPECT_DOUBLE_EQ(s.goodput_rps, 0.0);
}

TEST(Experiment, SummaryPercentilesOrdered) {
  ExperimentConfig cfg;
  cfg.duration = sec(15);
  Experiment exp(testutil::chain_app(0.6), cfg);
  exp.closed_loop(30, msec(50));
  exp.run();
  const auto s = exp.summary();
  EXPECT_LE(s.p50_ms, s.p95_ms);
  EXPECT_LE(s.p95_ms, s.p99_ms);
}

TEST(Experiment, DeterministicWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    ExperimentConfig cfg;
    cfg.duration = sec(10);
    cfg.seed = seed;
    Experiment exp(testutil::chain_app(0.5), cfg);
    exp.closed_loop(25, msec(80));
    exp.run();
    return exp.summary();
  };
  const auto a = run(3), b = run(3), c = run(4);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
  EXPECT_NE(a.injected, c.injected);
}

/// The seed an Experiment configured with seed 42 resolves to while
/// SORA_SEED is set to `value` (the caller's own setting is restored).
std::uint64_t seed_under_env(const char* value) {
  const char* prior = std::getenv("SORA_SEED");
  const std::string saved = prior != nullptr ? prior : "";
  ::setenv("SORA_SEED", value, 1);
  ExperimentConfig cfg;
  cfg.seed = 42;
  const Experiment exp(testutil::single_service(), cfg);
  if (prior != nullptr) {
    ::setenv("SORA_SEED", saved.c_str(), 1);
  } else {
    ::unsetenv("SORA_SEED");
  }
  return exp.config().seed;
}

TEST(Experiment, SeedEnvOverrideAcceptsUnsignedIntegers) {
  EXPECT_EQ(seed_under_env("7"), 7u);
  EXPECT_EQ(seed_under_env("18446744073709551615"), UINT64_MAX);
}

// strtoull would turn "-5" into 2^64 - 5 and saturate overflow to
// ULLONG_MAX; both must warn and keep the configured seed instead.
TEST(Experiment, SeedEnvOverrideRejectsNegativeAndOverflowingInput) {
  EXPECT_EQ(seed_under_env("-5"), 42u);
  EXPECT_EQ(seed_under_env(" -5"), 42u);
  EXPECT_EQ(seed_under_env("18446744073709551616"), 42u);  // 2^64
  EXPECT_EQ(seed_under_env("99999999999999999999999"), 42u);
  EXPECT_EQ(seed_under_env("12abc"), 42u);
}

TEST(Experiment, SloAnalyticsDetectsEpisodesAndAttributes) {
  ExperimentConfig cfg;
  cfg.duration = sec(20);
  cfg.sla = msec(2);  // unattainable: the chain needs ~3.2ms of service time
  Experiment exp(testutil::chain_app(0.0), cfg);
  SloAnalyticsOptions slo;
  slo.monitor.fast_window = sec(5);
  slo.monitor.slow_window = sec(15);
  exp.enable_slo_analytics(slo);
  exp.closed_loop(10, msec(50));
  exp.run();

  ASSERT_TRUE(exp.slo_analytics_enabled());
  const ExperimentSummary s = exp.summary();
  EXPECT_GT(s.slo_episodes, 0u);
  EXPECT_LT(exp.slo_monitor().good_ratio("e2e"), 0.5);
  // Every request misses the SLA, so episode records landed in the log.
  EXPECT_FALSE(exp.decision_log().by_action("episode_start").empty());
  // Attribution resolves real service names; the top consumer must be one
  // of the chain's heavyweights (mid and leaf both do ~1.2ms of work).
  const std::string top = exp.attribution().top_consumer();
  EXPECT_TRUE(top == "mid" || top == "leaf") << top;
  EXPECT_GT(exp.attribution().traces_attributed(), 0u);

  // Attribution is a warehouse store listener: it saw every stored trace
  // (none of the chain's are shed), and each stored copy is marked, with
  // the marks naming exactly the hops a fresh walk finds and attribution
  // reports.
  EXPECT_EQ(exp.attribution().traces_attributed(),
            exp.warehouse().total_stored());
  std::size_t checked = 0;
  exp.warehouse().for_each_in_window(0, kSimTimeNever, [&](const Trace& t) {
    std::vector<ServiceId> marked;
    for_each_critical_hop(
        t, [&marked](const Span& sp) { marked.push_back(sp.service); });
    std::vector<ServiceId> walked;
    walk_critical_path(
        t, [&walked](const Span& sp) { walked.push_back(sp.service); });
    std::vector<ServiceId> attributed;
    for (const obs::HopBudget& hop : obs::attribute_budget(t, cfg.sla).hops) {
      attributed.push_back(hop.service);
    }
    EXPECT_FALSE(marked.empty());
    EXPECT_EQ(marked, walked);
    EXPECT_EQ(attributed, marked);
    ++checked;
  });
  EXPECT_GT(checked, 0u);

  std::ostringstream report, html, csv, burn;
  exp.export_slo_report_text(report, "chain");
  exp.export_slo_report_html(html, "chain");
  exp.export_attribution_csv(csv);
  exp.export_burn_csv("e2e", burn);
  EXPECT_NE(report.str().find("Violation episodes"), std::string::npos);
  EXPECT_NE(report.str().find("leaf"), std::string::npos);
  EXPECT_NE(html.str().find("<table>"), std::string::npos);
  EXPECT_NE(csv.str().find("mid"), std::string::npos);
  EXPECT_NE(burn.str().find("fast_burn"), std::string::npos);
}

TEST(Experiment, SloAnalyticsQuietWhenHealthy) {
  ExperimentConfig cfg;
  cfg.duration = sec(15);
  cfg.sla = msec(100);  // trivially met by the lightly loaded chain
  Experiment exp(testutil::chain_app(0.2), cfg);
  exp.enable_slo_analytics();
  exp.closed_loop(5, msec(100));
  exp.run();
  EXPECT_EQ(exp.summary().slo_episodes, 0u);
  EXPECT_GT(exp.slo_monitor().good_ratio("e2e"), 0.99);
}


// The per-service `rpc.latency_us` histograms of a short chain run, read
// after `attach_reader` set the run up.
template <typename Setup>
std::vector<const obs::HistogramMetric*> run_span_latency(Experiment& exp,
                                                          Setup attach_reader) {
  exp.closed_loop(10, msec(100));
  attach_reader(exp);
  exp.run();
  std::vector<const obs::HistogramMetric*> out;
  for (const auto& svc : exp.app().services()) {
    out.push_back(exp.app().metrics().find_histogram(
        "rpc.latency_us", {{"service", svc->name()}}));
  }
  return out;
}

ExperimentConfig span_latency_config() {
  ExperimentConfig cfg;
  cfg.duration = sec(10);
  cfg.sla = msec(100);
  cfg.seed = 5;
  return cfg;
}

// Nothing reads the span-latency histograms: they exist (the registry's
// series order does not depend on a reader) but record nothing.
TEST(Experiment, SpanLatencyUnrecordedWithoutAReader) {
  Experiment exp(testutil::chain_app(0.4), span_latency_config());
  const auto hists = run_span_latency(exp, [](Experiment&) {});
  ASSERT_EQ(hists.size(), 3u);
  for (const obs::HistogramMetric* h : hists) {
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 0u);
  }
  EXPECT_GT(exp.summary().completed, 100u);
}

// Metrics sampling reads them, so every span a span listener sees is
// recorded under its service.
TEST(Experiment, SpanLatencyRecordsEverySpanWhenSampled) {
  Experiment exp(testutil::chain_app(0.4), span_latency_config());
  std::vector<std::uint64_t> spans(exp.app().services().size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    exp.tracer().add_span_listener(
        ServiceId(i), [&spans](const Span& s) { ++spans[s.service.value()]; });
  }
  const auto hists = run_span_latency(
      exp, [](Experiment& e) { e.enable_metrics_sampling(sec(5)); });
  ASSERT_EQ(hists.size(), spans.size());
  for (std::size_t i = 0; i < hists.size(); ++i) {
    ASSERT_NE(hists[i], nullptr);
    EXPECT_GT(spans[i], 100u);
    EXPECT_EQ(hists[i]->count(), spans[i]) << "service " << i;
  }
}

// An attached ctl plane reads them for /statusz's per-service p99.
TEST(Experiment, SpanLatencyFeedsStatuszWithCtlPlane) {
  Experiment exp(testutil::chain_app(0.4), span_latency_config());
  const auto hists = run_span_latency(exp, [](Experiment& e) {
    ctl::CtlOptions copt;
    copt.start_server = false;  // headless: the snapshot board still fills
    e.enable_ctl(copt);
  });
  for (const obs::HistogramMetric* h : hists) EXPECT_GT(h->count(), 0u);
  ASSERT_NE(exp.ctl_plane(), nullptr);
  const ctl::StatusSnapshot& snap = exp.ctl_plane()->board().read();
  ASSERT_EQ(snap.services.size(), 3u);
  for (const ctl::ServiceStatus& s : snap.services) {
    EXPECT_GT(s.p99_ms, 0.0) << s.name;
  }
}

}  // namespace
}  // namespace sora
