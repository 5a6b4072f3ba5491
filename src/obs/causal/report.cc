#include "obs/causal/report.h"

#include <ostream>

#include "common/table.h"

namespace sora::obs {

namespace {

std::string top_edge_label(const CausalEffect& e) {
  if (e.edges.empty()) return "-";
  const EdgeAttribution& top = e.edges.front();
  return top.parent + "->" + top.service + " (" + fmt(top.mean_delta_ms, 3) +
         " ms/span)";
}

TextTable effects_table(const CausalProfile& p) {
  TextTable t{{"what-if", "dp99 [ms]", "dgoodput [req/s]", "dknee",
               "traces", "top attributed edge"}};
  for (const CausalEffect& e : p.effects) {
    t.add_row({e.perturbation.label(), fmt(e.delta_p99_ms(), 2),
               fmt(e.delta_goodput(), 2),
               e.base_knee != 0.0 || e.cf_knee != 0.0 ? fmt(e.delta_knee(), 1)
                                                      : "-",
               fmt_count(e.diff.traces_aligned), top_edge_label(e)});
  }
  return t;
}

TextTable agreement_table(const std::vector<CausalProfile>& profiles) {
  TextTable t{{"regime", "pearson pick", "causal pick", "agree",
               "causal rank", "control"}};
  for (const CausalProfile& p : profiles) {
    t.add_row({p.scenario, p.pearson_pick.empty() ? "-" : p.pearson_pick,
               p.causal_pick.empty() ? "-" : p.causal_pick,
               p.agree ? "MATCH" : "DIVERGE", p.ranking_string(),
               p.control_identical ? "identical" : "DIVERGED"});
  }
  return t;
}

}  // namespace

void write_causal_report_text(const CausalReportInputs& in, std::ostream& os) {
  os << "=== " << in.title << " ===\n";
  if (in.profiles == nullptr || in.profiles->empty()) {
    os << "(no profiles)\n";
    return;
  }
  os << "\n-- Causal vs Pearson agreement --\n";
  agreement_table(*in.profiles).print(os);
  for (const CausalProfile& p : *in.profiles) {
    os << "\n-- " << p.scenario << " (checkpoint " << fmt(to_sec(p.checkpoint), 0)
       << " s, window " << fmt(to_sec(p.window), 0) << " s) --\n";
    const TextTable t = effects_table(p);
    if (t.num_rows() == 0) {
      os << "(no effects measured)\n";
    } else {
      t.print(os);
    }
  }
}

void write_causal_report_html(const CausalReportInputs& in, std::ostream& os) {
  const std::string title = html_escape(in.title);
  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>" << title
     << "</title><style>\n"
     << "body{font-family:sans-serif;margin:2em;max-width:70em}\n"
     << "table{border-collapse:collapse;margin:0.5em 0}\n"
     << "th,td{border:1px solid #ccc;padding:0.25em 0.6em;text-align:right}\n"
     << "th{background:#f0f0f0}td:first-child,th:first-child{text-align:left}\n"
     << "h2{border-bottom:1px solid #ddd;padding-bottom:0.2em}\n"
     << "</style></head><body>\n<h1>" << title << "</h1>\n";
  if (in.profiles == nullptr || in.profiles->empty()) {
    os << "<p>(no profiles)</p>\n</body></html>\n";
    return;
  }
  os << "<h2>Causal vs Pearson agreement</h2>\n";
  agreement_table(*in.profiles).print_html(os);
  for (const CausalProfile& p : *in.profiles) {
    os << "<h2>" << html_escape(p.scenario) << " (checkpoint "
       << fmt(to_sec(p.checkpoint), 0) << " s)</h2>\n";
    const TextTable t = effects_table(p);
    if (t.num_rows() == 0) {
      os << "<p>(no effects measured)</p>\n";
    } else {
      t.print_html(os);
    }
  }
  os << "</body></html>\n";
}

}  // namespace sora::obs
