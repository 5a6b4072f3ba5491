// Golden fixtures for the event engine: end-to-end scenarios run on the
// default engine, fingerprinted at 17 significant digits and compared line
// by line against tests/golden/<name>.txt.
//
//   cart_sora        — the Figure-10 leg (one simulated minute): Sock Shop
//                      cart under Steep Tri Phase, FIRM vertical scaling
//                      linked to Sora soft adaptation.
//   social_faulted   — Social Network home-timeline -> post-storage edge pool
//                      under Sora (one simulated minute), with an instance
//                      crash (in-flight dropped) and a scatter-dropout window.
//   synth_async_slo  — a small synthesized fleet where half the deep mid
//                      services fire async callbacks (so many traces outlive
//                      their root and reach the warehouse one hop late),
//                      with SLO analytics on: pins the finished-trace
//                      hand-off and everything fed from it.
//
// Each fingerprint covers the summary, the per-second tracked-service and
// client timelines, the localization verdict, the trace-warehouse digest,
// the decision-log JSONL and the simulator's event-stream digest;
// synth_async_slo adds the SLO report, the budget-attribution CSV and the
// end-to-end burn CSV. Any change to
// event order, tie-breaking, RNG draw order or controller arithmetic shows up
// as a first differing line.
//
// Regenerate after an intentional behaviour change with:
//   SORA_UPDATE_GOLDEN=1 ./test_engine_golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "fault/fault_plan.h"
#include "topo/synth.h"

#ifndef SORA_GOLDEN_DIR
#define SORA_GOLDEN_DIR "tests/golden"
#endif

namespace sora {
namespace {

constexpr SimTime kDuration = minutes(1);

void write_summary(std::ostream& os, const ExperimentSummary& s) {
  os << "summary " << s.injected << '|' << s.completed << '|' << s.shed << '|'
     << s.mean_ms << '|' << s.p50_ms << '|' << s.p95_ms << '|' << s.p99_ms
     << '|' << s.goodput_rps << '|' << s.throughput_rps << '|'
     << s.good_fraction << '|' << s.slo_episodes << '\n';
}

/// Everything observable about a finished run, one fact per line.
std::string fingerprint(Experiment& exp, const std::string& tracked) {
  std::ostringstream os;
  os.precision(17);
  write_summary(os, exp.summary());
  os << "localized " << bench::localization_mode(exp.decision_log()) << '\n';
  os << "warehouse " << exp.warehouse().digest() << '|'
     << exp.warehouse().total_stored() << '\n';
  os << "sim " << exp.sim().digest() << '|' << exp.sim().events_executed()
     << '|' << exp.sim().events_cancelled() << '\n';
  for (const ServiceTimelinePoint& p : exp.timeline(tracked)) {
    os << tracked << ' ' << p.at << ',' << p.util_pct << ',' << p.limit_pct
       << ',' << p.replicas << ',' << p.entry_capacity << ','
       << p.entry_in_use << ',' << p.edge_capacity << ',' << p.edge_in_use
       << '\n';
  }
  for (const TimelineBucket& b : exp.recorder().timeline()) {
    os << "client " << b.start << ',' << b.completed << ',' << b.good << ','
       << b.shed << ',' << b.sum_rt << ',' << b.max_rt << '\n';
  }
  exp.export_decision_log(os);
  return os.str();
}

ExperimentConfig golden_config() {
  // The fixtures pin the configured seed; an ambient override would make
  // every line differ for a reason that has nothing to do with the engine.
  ::unsetenv("SORA_SEED");
  ExperimentConfig cfg;
  cfg.duration = kDuration;
  cfg.sla = msec(400);
  cfg.seed = 42;
  return cfg;
}

std::string run_cart_sora() {
  sock_shop::Params params;
  params.cart_cores = 2.0;
  params.cart_threads = 5;
  const ExperimentConfig cfg = golden_config();
  Experiment exp(sock_shop::make_sock_shop(params), cfg);
  exp.sim().set_digest_enabled(true);

  const WorkloadTrace trace(TraceShape::kSteepTriPhase, kDuration, 600, 2400);
  auto& users =
      exp.closed_loop(600, sec(1), RequestMix(sock_shop::kBrowse));
  users.follow_trace(trace);

  FirmOptions fo;
  fo.slo_latency = cfg.sla;
  fo.min_cores = 2.0;
  fo.max_cores = 4.0;
  auto& firm = exp.add_firm(fo);
  firm.manage(exp.app().service("cart"));
  SoraFrameworkOptions so;
  so.sla = cfg.sla;
  auto& fw = exp.add_sora(so);
  fw.manage(ResourceKnob::entry(exp.app().service("cart")));
  Experiment::link(firm, fw);

  exp.track_service("cart");
  exp.run();
  return fingerprint(exp, "cart");
}

std::string run_social_faulted() {
  social_network::Params params;
  params.post_storage_replicas = 2;
  const ExperimentConfig cfg = golden_config();
  Experiment exp(social_network::make_social_network(params), cfg);
  exp.sim().set_digest_enabled(true);
  exp.closed_loop(400, sec(1),
                  RequestMix(social_network::kReadTimelineLight));
  SoraFrameworkOptions so;
  so.sla = cfg.sla;
  so.adapter.min_size = params.post_storage_connections;
  auto& fw = exp.add_sora(so);
  fw.manage(
      ResourceKnob::edge(exp.app().service("home-timeline"), "post-storage"));

  FaultEvent crash;
  crash.kind = FaultKind::kCrashInstance;
  crash.at = kDuration / 3;
  crash.service = "post-storage";
  crash.drop_inflight = true;
  crash.duration = kDuration / 6;
  FaultEvent scatter;
  scatter.kind = FaultKind::kScatterDropout;
  scatter.at = kDuration / 2;
  scatter.duration = kDuration / 6;
  scatter.fraction = 0.5;
  FaultPlan plan;
  plan.add(crash).add(scatter);
  exp.enable_faults(plan);

  exp.track_service("home-timeline", "post-storage");
  exp.run();
  return fingerprint(exp, "home-timeline");
}

std::string run_synth_async_slo() {
  topo::TopologyConfig tc;
  tc.seed = 3;
  tc.services = 100;
  tc.tenants = 2;
  tc.async_cycle_fraction = 0.5;
  const topo::Topology topo = topo::synthesize(tc);
  ExperimentConfig cfg = golden_config();
  cfg.duration = sec(20);
  cfg.sla = msec(40);
  Experiment exp(topo.app, cfg);
  exp.sim().set_digest_enabled(true);
  SloAnalyticsOptions slo;
  slo.monitor.fast_window = sec(2);
  slo.monitor.slow_window = sec(6);
  slo.attribution_window = sec(5);
  exp.enable_slo_analytics(slo);
  for (int tenant = 0; tenant < tc.tenants; ++tenant) {
    exp.open_loop(WorkloadTrace(TraceShape::kSteepTriPhase, cfg.duration,
                                40.0, 160.0),
                  topo.tenant_mix(tenant));
  }
  const std::string tracked = exp.app().service_name(ServiceId(0));
  exp.track_service(tracked);
  exp.run();
  std::ostringstream os;
  os.precision(17);
  os << fingerprint(exp, tracked);
  exp.export_slo_report_text(os, "synth");
  exp.export_attribution_csv(os);
  exp.export_burn_csv("e2e", os);
  return os.str();
}

void expect_matches_golden(const std::string& name, const std::string& got) {
  const std::string path = std::string(SORA_GOLDEN_DIR) + "/" + name + ".txt";
  if (std::getenv("SORA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << got;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream want;
  want << in.rdbuf();
  if (want.str() == got) return;

  std::istringstream a(want.str());
  std::istringstream b(got);
  std::string la;
  std::string lb;
  int line = 1;
  for (;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a) la = "<end of file>";
    if (!more_b) lb = "<end of output>";
    if (la != lb || (!more_a && !more_b)) break;
  }
  ADD_FAILURE() << name << " diverged from " << path << " at line " << line
                << ":\n  golden: " << la << "\n  actual: " << lb;
}

TEST(EngineGolden, CartSora) {
  expect_matches_golden("cart_sora", run_cart_sora());
}

TEST(EngineGolden, SocialFaulted) {
  expect_matches_golden("social_faulted", run_social_faulted());
}

TEST(EngineGolden, SynthAsyncSlo) {
  expect_matches_golden("synth_async_slo", run_synth_async_slo());
}

}  // namespace
}  // namespace sora
