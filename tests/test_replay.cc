// Tests for cluster-trace replay (workload/replay): fail-closed CSV
// parsing, piecewise-linear trace semantics, deterministic synthesis, and
// byte-identical replayed runs across reruns.
#include "workload/replay.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/experiment.h"
#include "topo/synth.h"

namespace sora {
namespace {

const char kGoodCsv[] =
    "time_s,web,mobile\n"
    "0,10,5\n"
    "5,20,5\n"
    "10,15,8\n";

TEST(ReplayParse, AcceptsWellFormedCsv) {
  const ClusterTraceParse p = parse_cluster_trace_csv(std::string(kGoodCsv));
  ASSERT_TRUE(p.ok) << p.error;
  ASSERT_EQ(p.trace.tenants.size(), 2u);
  EXPECT_EQ(p.trace.tenants[0], "web");
  EXPECT_EQ(p.trace.tenants[1], "mobile");
  ASSERT_EQ(p.trace.times.size(), 3u);
  EXPECT_EQ(p.trace.times[1], sec(5));
  EXPECT_EQ(p.trace.duration(), sec(10));
  EXPECT_DOUBLE_EQ(p.trace.rows[1][0], 20.0);
  EXPECT_DOUBLE_EQ(p.trace.rows[2][1], 8.0);
}

TEST(ReplayParse, ToleratesCrlfAndBlankLines) {
  const ClusterTraceParse p = parse_cluster_trace_csv(
      "time_s,web\r\n0,10\r\n\r\n5,20\r\n");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.trace.times.size(), 2u);
}

// Every malformed shape must fail with a diagnostic, never parse partially.
TEST(ReplayParse, FailsClosedOnMalformedInput) {
  const char* cases[] = {
      // wrong header column
      "t,web\n0,10\n5,20\n",
      // no tenant columns
      "time_s\n0\n5\n",
      // empty tenant name
      "time_s,web,\n0,10,5\n5,20,5\n",
      // duplicate tenant name
      "time_s,web,web\n0,10,5\n5,20,5\n",
      // fewer than two data rows
      "time_s,web\n0,10\n",
      // empty input
      "",
      // ragged row
      "time_s,web,mobile\n0,10,5\n5,20\n",
      // non-monotone timestamps
      "time_s,web\n0,10\n5,20\n5,30\n",
      "time_s,web\n0,10\n5,20\n3,30\n",
      // negative timestamp
      "time_s,web\n-1,10\n5,20\n",
      // negative rate
      "time_s,web\n0,10\n5,-2\n",
      // non-finite rate
      "time_s,web\n0,10\n5,nan\n",
      "time_s,web\n0,inf\n5,20\n",
      // trailing garbage in a number
      "time_s,web\n0,10\n5,20x\n",
      "time_s,web\n0,10\nabc,20\n",
  };
  for (const char* text : cases) {
    const ClusterTraceParse p = parse_cluster_trace_csv(std::string(text));
    EXPECT_FALSE(p.ok) << "accepted: " << text;
    EXPECT_FALSE(p.error.empty()) << text;
  }
  // Errors cite the offending row so a bad file is debuggable.
  const ClusterTraceParse p =
      parse_cluster_trace_csv(std::string("time_s,web\n0,10\n5,-2\n"));
  EXPECT_NE(p.error.find("row"), std::string::npos) << p.error;
}

TEST(ReplayTrace, PiecewiseInterpolatesAndClamps) {
  const WorkloadTrace t = WorkloadTrace::piecewise(
      {{sec(0), 10.0}, {sec(10), 30.0}, {sec(20), 30.0}, {sec(30), 0.0}});
  EXPECT_DOUBLE_EQ(t.rate_at(sec(0)), 10.0);
  EXPECT_DOUBLE_EQ(t.rate_at(sec(5)), 20.0);
  EXPECT_DOUBLE_EQ(t.rate_at(sec(10)), 30.0);
  EXPECT_DOUBLE_EQ(t.rate_at(sec(15)), 30.0);
  EXPECT_DOUBLE_EQ(t.rate_at(sec(25)), 15.0);
  // Clamped outside the sampled span.
  EXPECT_DOUBLE_EQ(t.rate_at(sec(40)), 0.0);
  EXPECT_DOUBLE_EQ(t.max_rate(), 30.0);

  // Copies share the sampled curve (the generator stores traces by value).
  const WorkloadTrace copy = t;
  EXPECT_DOUBLE_EQ(copy.rate_at(sec(5)), 20.0);
}

TEST(ReplayTrace, TenantTraceScalesRates) {
  const ClusterTraceParse p = parse_cluster_trace_csv(std::string(kGoodCsv));
  ASSERT_TRUE(p.ok);
  const WorkloadTrace t = p.trace.tenant_trace(0, /*rate_scale=*/0.5);
  EXPECT_DOUBLE_EQ(t.rate_at(sec(5)), 10.0);
  EXPECT_DOUBLE_EQ(t.max_rate(), 10.0);
}

TEST(ReplaySynthesis, DeterministicAndParseable) {
  ReplaySynthesisConfig cfg;
  cfg.tenants = 3;
  cfg.duration_s = 120.0;
  const std::string a = synthesize_cluster_trace_csv(cfg);
  const std::string b = synthesize_cluster_trace_csv(cfg);
  EXPECT_EQ(a, b);

  cfg.seed = 8;
  EXPECT_NE(a, synthesize_cluster_trace_csv(cfg));

  const ClusterTraceParse p = parse_cluster_trace_csv(a);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.trace.tenants.size(), 3u);
  EXPECT_GE(p.trace.times.size(), 20u);
}

// One replayed experiment: topology + cluster trace + ReplayWorkloadSource
// through the Experiment::set_workload_source seam.
struct ReplayRun {
  std::uint64_t injected = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t source_injected = 0;
  std::uint64_t warehouse_digest = 0;
  std::string fingerprint;
};

ReplayRun run_replay() {
  topo::TopologyConfig tcfg;
  tcfg.seed = 3;
  tcfg.services = 80;
  tcfg.tenants = 2;
  tcfg.entries_per_tenant = 1;
  const topo::Topology topo = topo::synthesize(tcfg);

  ReplaySynthesisConfig rcfg;
  rcfg.tenants = 2;
  rcfg.duration_s = 40.0;
  rcfg.step_s = 2.0;
  rcfg.base_rps = 8.0;
  const ClusterTraceParse parsed =
      parse_cluster_trace_csv(synthesize_cluster_trace_csv(rcfg));
  EXPECT_TRUE(parsed.ok) << parsed.error;

  ExperimentConfig ecfg;
  ecfg.duration = sec(40);
  ecfg.seed = 11;
  ecfg.sla = tcfg.request_sla;
  Experiment exp(topo.app, ecfg);
  auto source = std::make_unique<ReplayWorkloadSource>(parsed.trace);
  for (int t = 0; t < tcfg.tenants; ++t) {
    source->set_tenant_mix(static_cast<std::size_t>(t), topo.tenant_mix(t));
  }
  WorkloadSource& bound = exp.set_workload_source(std::move(source));
  exp.run();

  ReplayRun out;
  const ExperimentSummary s = exp.summary();
  out.injected = s.injected;
  out.completed = s.completed;
  out.shed = s.shed;
  out.source_injected = bound.injected();
  out.warehouse_digest = exp.warehouse().digest();
  std::ostringstream os;
  os.precision(17);
  os << s.injected << '|' << s.completed << '|' << s.shed << '|' << s.mean_ms
     << '|' << s.p50_ms << '|' << s.p95_ms << '|' << s.p99_ms << '|'
     << s.goodput_rps << '|' << exp.warehouse().digest() << '|'
     << exp.warehouse().total_stored();
  out.fingerprint = os.str();
  return out;
}

TEST(ReplayRunDeterminism, RerunsAreByteIdentical) {
  const ReplayRun a = run_replay();
  const ReplayRun b = run_replay();
  EXPECT_GT(a.injected, 300u);
  EXPECT_GT(a.completed, 100u);
  // The fingerprint must cover real traces, not an empty warehouse.
  EXPECT_NE(a.warehouse_digest, TraceWarehouse(1).digest());
  EXPECT_EQ(a.source_injected, a.injected);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

}  // namespace
}  // namespace sora
