// Tests for the SLO report generator: section presence, episode/attribution
// stitching, and well-formed HTML.
#include "obs/slo_report.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/budget.h"
#include "obs/decision_log.h"
#include "obs/quantile_sketch.h"
#include "obs/slo_monitor.h"
#include "test_util.h"
#include "trace/critical_path.h"

namespace sora::obs {
namespace {

// A populated analytics stack: latency sketch, a monitor with one episode,
// and an attributor where "leaf" dominates consumption.
struct Fixture {
  QuantileSketch latency;
  SloMonitor monitor;
  BudgetAttributor attribution;
  DecisionLog decisions;

  Fixture()
      : monitor([] {
          SloMonitorOptions o;
          o.target = 0.9;
          o.fast_window = sec(10);
          o.slow_window = sec(30);
          o.burn_threshold = 2.0;
          return o;
        }()),
        attribution(/*sla=*/150, /*window=*/sec(1),
                    [](ServiceId id) {
                      return id == ServiceId(2) ? std::string("leaf")
                                                : std::string();
                    }) {
    for (int i = 1; i <= 1000; ++i) latency.record(i * 100.0);  // 0.1..100ms
    for (SimTime t = 0; t < sec(30); t += sec(1)) {
      for (int i = 0; i < 10; ++i) monitor.record("e2e", t, false);
      monitor.evaluate(t);
      Trace tr = testutil::make_trace(
          {
              {-1, 0, 0, 100, 80},
              {0, 1, 10, 90, 60},
              {1, 2, 20, 80, 0},
          },
          static_cast<std::uint64_t>(t / sec(1)) + 1);
      mark_critical_path(tr);
      attribution.on_budget(attribute_budget(tr, 150), t);
    }
    monitor.finish(sec(30));
    attribution.flush(sec(30));
  }

  SloReportInputs inputs() const {
    SloReportInputs in;
    in.title = "test run";
    in.sla = msec(150);
    in.latency = &latency;
    in.monitor = &monitor;
    in.attribution = &attribution;
    in.decisions = &decisions;
    return in;
  }
};

TEST(SloReport, TextContainsAllSections) {
  Fixture fx;
  std::ostringstream os;
  write_slo_report_text(fx.inputs(), os);
  const std::string r = os.str();
  EXPECT_NE(r.find("=== test run ==="), std::string::npos);
  EXPECT_NE(r.find("End-to-end latency (quantile sketch)"), std::string::npos);
  EXPECT_NE(r.find("SLO compliance"), std::string::npos);
  EXPECT_NE(r.find("Violation episodes"), std::string::npos);
  EXPECT_NE(r.find("Latency-budget attribution"), std::string::npos);
  // Percentile rows and the sample count.
  EXPECT_NE(r.find("p50"), std::string::npos);
  EXPECT_NE(r.find("p99.9"), std::string::npos);
  // The monitor's single all-bad episode.
  EXPECT_NE(r.find("e2e"), std::string::npos);
  // Episode row names the top budget consumer resolved via the namer.
  EXPECT_NE(r.find("leaf"), std::string::npos);
}

TEST(SloReport, EmptyInputsDegradeGracefully) {
  SloReportInputs in;
  in.title = "empty";
  in.sla = msec(100);
  std::ostringstream os;
  write_slo_report_text(in, os);
  const std::string r = os.str();
  EXPECT_NE(r.find("=== empty ==="), std::string::npos);
  EXPECT_NE(r.find("(none detected)"), std::string::npos);
  EXPECT_NE(r.find("(no attributed traces)"), std::string::npos);
}

TEST(SloReport, HtmlIsSelfContained) {
  Fixture fx;
  std::ostringstream os;
  write_slo_report_html(fx.inputs(), os);
  const std::string r = os.str();
  EXPECT_EQ(r.rfind("<!DOCTYPE html>", 0), 0u);  // starts with doctype
  EXPECT_NE(r.find("</html>"), std::string::npos);
  EXPECT_NE(r.find("<table>"), std::string::npos);
  EXPECT_NE(r.find("<th>"), std::string::npos);
  EXPECT_NE(r.find("leaf"), std::string::npos);
  // No external asset references.
  EXPECT_EQ(r.find("http://"), std::string::npos);
  EXPECT_EQ(r.find("https://"), std::string::npos);
  EXPECT_EQ(r.find("src="), std::string::npos);
}

TEST(SloReport, HtmlEscapesTitle) {
  Fixture fx;
  SloReportInputs in = fx.inputs();
  in.title = "a<b>&c";
  std::ostringstream os;
  write_slo_report_html(in, os);
  EXPECT_EQ(os.str().find("<b>&c"), std::string::npos);
}

}  // namespace
}  // namespace sora::obs
