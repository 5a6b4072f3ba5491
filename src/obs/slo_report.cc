#include "obs/slo_report.h"

#include <algorithm>
#include <ostream>
#include <vector>

#include "common/table.h"
#include "obs/budget.h"
#include "obs/decision_log.h"
#include "obs/quantile_sketch.h"
#include "obs/slo_monitor.h"

namespace sora::obs {

namespace {

constexpr double kPercentiles[] = {50.0, 90.0, 95.0, 99.0, 99.9};

std::string fmt_or_dash(double v, int precision) {
  return is_no_sample(v) ? "-" : fmt(v, precision);
}

/// Per-service aggregate over every attribution window.
struct ServiceAgg {
  std::string service;
  std::uint64_t traces = 0;
  double total_pt_ms = 0.0;
  double mean_pt_ms = 0.0;
  double budget_share = 0.0;
  double mean_slack_ms = 0.0;
  double min_slack_ms = 0.0;
  std::uint64_t violations = 0;
};

std::vector<ServiceAgg> aggregate_attribution(const BudgetAttributor& attr) {
  std::vector<ServiceAgg> out;
  for (const TimeSeriesSink& sink : attr.timelines()) {
    ServiceAgg a;
    a.service = sink.name();
    double slack_weighted = 0.0;
    bool first = true;
    for (std::size_t r = 0; r < sink.num_rows(); ++r) {
      const double traces = sink.value(r, 0);
      a.traces += static_cast<std::uint64_t>(traces);
      a.total_pt_ms += traces * sink.value(r, 1);
      slack_weighted += traces * sink.value(r, 3);
      const double min_slack = sink.value(r, 4);
      if (first || min_slack < a.min_slack_ms) a.min_slack_ms = min_slack;
      first = false;
      a.violations += static_cast<std::uint64_t>(sink.value(r, 5));
    }
    if (a.traces > 0) {
      const double n = static_cast<double>(a.traces);
      a.mean_pt_ms = a.total_pt_ms / n;
      a.mean_slack_ms = slack_weighted / n;
      a.budget_share = to_msec(attr.sla()) > 0.0
                           ? a.mean_pt_ms / to_msec(attr.sla())
                           : 0.0;
      out.push_back(std::move(a));
    }
  }
  std::sort(out.begin(), out.end(), [](const ServiceAgg& x, const ServiceAgg& y) {
    return x.total_pt_ms > y.total_pt_ms;
  });
  return out;
}

std::size_t decisions_during_episodes(const DecisionLog& log,
                                      const std::vector<ViolationEpisode>& eps) {
  std::size_t n = 0;
  for (const ControlDecisionRecord& r : log.records()) {
    if (r.controller == "slo-monitor") continue;
    for (const ViolationEpisode& ep : eps) {
      if (r.at >= ep.start && r.at <= ep.end) {
        ++n;
        break;
      }
    }
  }
  return n;
}

void build_tables(const SloReportInputs& in, TextTable* latency,
                  TextTable* slo, TextTable* episodes, TextTable* attribution,
                  std::string* footer) {
  if (in.latency != nullptr && in.latency->count() > 0) {
    for (double p : kPercentiles) {
      latency->add_row({std::string("p").append(fmt(p, p == 99.9 ? 1 : 0)),
                        fmt_or_dash(in.latency->percentile(p) / 1e3, 1)});
    }
    latency->add_row({"mean", fmt(in.latency->mean() / 1e3, 1)});
    latency->add_row({"max", fmt(in.latency->max() / 1e3, 1)});
    latency->add_row({"samples", fmt_count(in.latency->count())});
    latency->add_row(
        {"sketch rel. accuracy", fmt(in.latency->relative_accuracy(), 3)});
    latency->add_row(
        {"sketch buckets", fmt_count(in.latency->num_buckets())});
  }

  if (in.monitor != nullptr) {
    for (const std::string& entity : in.monitor->entities()) {
      const auto eps = in.monitor->episodes_for(entity);
      double peak = 0.0;
      SimTime violated = 0;
      for (const auto* ep : eps) {
        peak = std::max(peak, ep->peak_fast_burn);
        violated += ep->duration();
      }
      slo->add_row({entity, fmt(100.0 * in.monitor->good_ratio(entity), 2),
                    fmt_count(in.monitor->total(entity)),
                    fmt_count(eps.size()), fmt(to_sec(violated), 0),
                    fmt(peak, 1)});
    }

    for (std::size_t i = 0; i < in.monitor->episodes().size(); ++i) {
      const ViolationEpisode& ep = in.monitor->episodes()[i];
      std::string top = "-";
      if (in.attribution != nullptr) {
        const std::string t = in.attribution->top_consumer(ep.start, ep.end);
        if (!t.empty()) top = t;
      }
      episodes->add_row({fmt_count(i + 1), ep.entity, fmt(to_sec(ep.start), 0),
                         ep.open ? "open" : fmt(to_sec(ep.end), 0),
                         fmt(to_sec(ep.duration()), 0),
                         fmt(ep.peak_fast_burn, 1),
                         fmt_count(ep.bad_requests), top});
    }
  }

  if (in.attribution != nullptr) {
    for (const ServiceAgg& a : aggregate_attribution(*in.attribution)) {
      attribution->add_row({a.service, fmt_count(a.traces),
                            fmt(a.total_pt_ms / 1e3, 1), fmt(a.mean_pt_ms, 2),
                            fmt(100.0 * a.budget_share, 1),
                            fmt(a.mean_slack_ms, 1), fmt(a.min_slack_ms, 1),
                            fmt_count(a.violations)});
    }
  }

  if (in.decisions != nullptr && in.monitor != nullptr &&
      !in.monitor->episodes().empty()) {
    *footer = "controller decisions during open episodes: " +
              std::to_string(decisions_during_episodes(
                  *in.decisions, in.monitor->episodes()));
  }
}

struct ReportTables {
  TextTable latency{{"latency [ms]", "value"}};
  TextTable slo{{"entity", "good %", "requests", "episodes",
                 "violated [s]", "peak burn"}};
  TextTable episodes{{"#", "entity", "start [s]", "end [s]", "dur [s]",
                      "peak burn", "bad reqs", "top budget consumer"}};
  TextTable attribution{{"service", "traces", "total PT [s]", "mean PT [ms]",
                         "budget share %", "mean slack [ms]",
                         "min slack [ms]", "violations"}};
  std::string footer;
};

}  // namespace

void write_slo_report_text(const SloReportInputs& in, std::ostream& os) {
  ReportTables t;
  build_tables(in, &t.latency, &t.slo, &t.episodes, &t.attribution, &t.footer);

  os << "=== " << in.title << " ===\n";
  os << "SLA " << fmt(to_msec(in.sla), 0) << " ms";
  if (in.monitor != nullptr) {
    os << ", objective " << fmt(100.0 * in.monitor->options().target, 1)
       << "% good, burn threshold " << fmt(in.monitor->options().burn_threshold, 1)
       << " (fast " << fmt(to_sec(in.monitor->options().fast_window), 0)
       << " s / slow " << fmt(to_sec(in.monitor->options().slow_window), 0)
       << " s)";
  }
  os << "\n\n-- End-to-end latency (quantile sketch) --\n";
  t.latency.print(os);
  os << "\n-- SLO compliance --\n";
  t.slo.print(os);
  os << "\n-- Violation episodes --\n";
  if (t.episodes.num_rows() == 0) {
    os << "(none detected)\n";
  } else {
    t.episodes.print(os);
  }
  os << "\n-- Latency-budget attribution (whole run) --\n";
  if (t.attribution.num_rows() == 0) {
    os << "(no attributed traces)\n";
  } else {
    t.attribution.print(os);
  }
  if (!t.footer.empty()) os << "\n" << t.footer << "\n";
}

void write_slo_report_html(const SloReportInputs& in, std::ostream& os) {
  ReportTables t;
  build_tables(in, &t.latency, &t.slo, &t.episodes, &t.attribution, &t.footer);

  const std::string title_escaped = html_escape(in.title);

  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>"
     << title_escaped << "</title><style>\n"
     << "body{font-family:sans-serif;margin:2em;max-width:70em}\n"
     << "table{border-collapse:collapse;margin:0.5em 0}\n"
     << "th,td{border:1px solid #ccc;padding:0.25em 0.6em;text-align:right}\n"
     << "th{background:#f0f0f0}td:first-child,th:first-child{text-align:left}\n"
     << "h2{border-bottom:1px solid #ddd;padding-bottom:0.2em}\n"
     << "</style></head><body>\n";
  os << "<h1>" << title_escaped << "</h1>\n";
  os << "<p>SLA " << fmt(to_msec(in.sla), 0) << " ms";
  if (in.monitor != nullptr) {
    os << " &middot; objective " << fmt(100.0 * in.monitor->options().target, 1)
       << "% good &middot; burn threshold "
       << fmt(in.monitor->options().burn_threshold, 1);
  }
  os << "</p>\n";
  os << "<h2>End-to-end latency (quantile sketch)</h2>\n";
  t.latency.print_html(os);
  os << "<h2>SLO compliance</h2>\n";
  t.slo.print_html(os);
  os << "<h2>Violation episodes</h2>\n";
  if (t.episodes.num_rows() == 0) {
    os << "<p>(none detected)</p>\n";
  } else {
    t.episodes.print_html(os);
  }
  os << "<h2>Latency-budget attribution</h2>\n";
  if (t.attribution.num_rows() == 0) {
    os << "<p>(no attributed traces)</p>\n";
  } else {
    t.attribution.print_html(os);
  }
  if (!t.footer.empty()) os << "<p>" << t.footer << "</p>\n";
  os << "</body></html>\n";
}

}  // namespace sora::obs
