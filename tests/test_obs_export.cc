// Exporter tests: an exact golden-file check for the Chrome trace_event
// exporter on a hand-built trace (fully controlled input), plus structural
// well-formedness checks on the telemetry an end-to-end experiment run
// emits (decision-log JSONL, Chrome trace, timelines, metrics). Full-run
// output is checked structurally, not byte-for-byte: any change to
// simulation timing would otherwise invalidate the golden.
//
// Regenerate the golden after an intentional format change with:
//   SORA_UPDATE_GOLDEN=1 ./test_obs_export
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "obs/chrome_trace.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "test_util.h"

#ifndef SORA_GOLDEN_DIR
#define SORA_GOLDEN_DIR "tests/golden"
#endif

namespace sora {
namespace {

// --- minimal structural JSON checker -----------------------------------------
// Not a parser: verifies balanced braces/brackets outside string literals
// and terminated strings, which catches every truncation/escaping bug the
// exporters could realistically produce.
bool json_structurally_valid(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

// --- golden-file check on a hand-built warehouse ------------------------------

Trace make_trace(std::uint64_t id, SimTime start) {
  Trace t;
  t.id = TraceId(id);
  t.request_class = 0;
  t.start = start;
  t.end = start + msec(12);

  Span root;
  root.id = SpanId(id * 10);
  root.trace = t.id;
  root.service = ServiceId(1);
  root.instance = InstanceId(11);
  root.arrival = start;
  root.admitted = start + usec(200);
  root.departure = t.end;
  root.downstream_wait = msec(8);
  root.children.push_back(ChildCall{1, 0, start + msec(1), start + msec(9)});

  Span child;
  child.id = SpanId(id * 10 + 1);
  child.trace = t.id;
  child.parent = root.id;
  child.service = ServiceId(2);
  child.instance = InstanceId(22);
  child.arrival = start + msec(1);
  child.admitted = start + msec(2);
  child.departure = start + msec(9);

  t.spans.push_back(root);
  t.spans.push_back(child);
  return t;
}

std::string service_name(ServiceId id) {
  return id.value() == 1 ? "front" : "leaf";
}

TEST(ChromeTraceExport, MatchesGoldenFile) {
  const std::vector<Trace> traces = {make_trace(1, msec(100)),
                                     make_trace(2, msec(150))};
  std::ostringstream os;
  const std::size_t n = obs::export_chrome_trace(traces, service_name, os);
  EXPECT_EQ(n, 2u);
  ASSERT_TRUE(json_structurally_valid(os.str()));

  const std::string golden_path =
      std::string(SORA_GOLDEN_DIR) + "/chrome_trace_small.json";
  if (std::getenv("SORA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    out << os.str();
    GTEST_SKIP() << "golden updated: " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(os.str(), golden.str());
}

TEST(ChromeTraceExport, WindowAndCapFilter) {
  const std::vector<Trace> traces = {make_trace(1, msec(100)),
                                     make_trace(2, msec(150)),
                                     make_trace(3, msec(200))};
  std::ostringstream capped;
  obs::ChromeTraceOptions opt;
  opt.max_traces = 2;
  EXPECT_EQ(obs::export_chrome_trace(traces, service_name, capped, opt), 2u);
  EXPECT_TRUE(json_structurally_valid(capped.str()));
}

// --- end-to-end: a real run emits well-formed telemetry -----------------------

TEST(ExperimentTelemetry, EndToEndExportsAreWellFormed) {
  ExperimentConfig cfg;
  cfg.duration = sec(70);
  cfg.sla = msec(50);
  Experiment exp(testutil::chain_app(0.3), cfg);
  exp.closed_loop(40, msec(200));

  SoraFrameworkOptions so;
  so.sla = cfg.sla;
  auto& fw = exp.add_sora(so);
  fw.manage(ResourceKnob::entry(exp.app().service("mid")));

  FirmOptions fo;
  fo.slo_latency = cfg.sla;
  auto& firm = exp.add_firm(fo);
  firm.manage(exp.app().service("mid"));
  Experiment::link(firm, fw);

  exp.track_service("mid");
  exp.enable_metrics_sampling(sec(10));
  exp.run();

  // Decision log: every control plane recorded every round.
  EXPECT_GT(exp.decision_log().by_controller("sora").size(), 0u);
  EXPECT_GT(exp.decision_log().by_controller("firm").size(), 0u);
  std::ostringstream decisions;
  exp.export_decision_log(decisions);
  const auto decision_lines = lines_of(decisions.str());
  ASSERT_EQ(decision_lines.size(), exp.decision_log().size());
  for (const std::string& line : decision_lines) {
    ASSERT_TRUE(json_structurally_valid(line)) << line;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"controller\":"), std::string::npos);
    EXPECT_NE(line.find("\"action\":"), std::string::npos);
    EXPECT_NE(line.find("\"reason\":"), std::string::npos);
  }

  // Chrome trace of the same run.
  std::ostringstream trace;
  obs::ChromeTraceOptions topt;
  topt.max_traces = 50;
  const std::size_t exported = exp.export_chrome_trace(trace, topt);
  EXPECT_GT(exported, 0u);
  ASSERT_TRUE(json_structurally_valid(trace.str()));
  EXPECT_NE(trace.str().find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.str().find("\"name\":\"mid\""), std::string::npos);
  EXPECT_NE(trace.str().find("\"processing_us\":"), std::string::npos);

  // Timelines through the TimeSeriesSink.
  const obs::TimeSeriesSink sink = exp.timeline_sink("mid");
  EXPECT_GT(sink.num_rows(), 0u);
  std::ostringstream csv;
  exp.export_timelines_csv("mid", csv);
  const auto csv_lines = lines_of(csv.str());
  ASSERT_GT(csv_lines.size(), 1u);
  EXPECT_EQ(csv_lines.front(),
            "at_us,util_pct,limit_pct,replicas,entry_capacity,entry_in_use,"
            "edge_capacity,edge_in_use");

  // Metrics snapshots collected during the run.
  EXPECT_GT(exp.metrics_snapshots().size(), 0u);
  std::ostringstream metrics;
  exp.export_metrics_jsonl(metrics);
  bool saw_pool_metric = false;
  for (const std::string& line : lines_of(metrics.str())) {
    ASSERT_TRUE(json_structurally_valid(line)) << line;
    if (line.find("\"pool.capacity\"") != std::string::npos) {
      saw_pool_metric = true;
    }
  }
  EXPECT_TRUE(saw_pool_metric);

  // The profiler attributed control-plane work to this experiment.
  const ExperimentSummary summary = exp.summary();
  bool saw_round = false;
  for (const auto& s : summary.controller_overhead) {
    if (s.stage == "sora.control_round") {
      saw_round = true;
      EXPECT_GE(s.calls, 1u);
    }
  }
  EXPECT_TRUE(saw_round);
}

}  // namespace
}  // namespace sora
