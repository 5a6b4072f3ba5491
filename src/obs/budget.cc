#include "obs/budget.h"

#include <algorithm>

#include "obs/json.h"
#include "trace/critical_path.h"

namespace sora::obs {

namespace {
const std::vector<std::string> kColumns = {
    "traces",        "mean_pt_ms",   "budget_share",
    "mean_slack_ms", "min_slack_ms", "violations"};
}  // namespace

const HopBudget* TraceBudget::top_consumer() const {
  const HopBudget* best = nullptr;
  for (const HopBudget& h : hops) {
    if (best == nullptr || h.processing > best->processing) best = &h;
  }
  return best;
}

TraceBudget attribute_budget(const Trace& trace, SimTime sla) {
  TraceBudget out;
  out.id = trace.id;
  out.sla = sla;
  out.response = trace.response_time();
  out.met_sla = out.response <= sla;
  SimTime upstream = 0;
  for_each_critical_hop(trace, [&](const Span& s) {
    HopBudget hb;
    hb.service = s.service;
    hb.processing = s.processing_time();
    hb.span_duration = s.duration();
    hb.deadline = sla - upstream;
    hb.slack = hb.deadline - hb.span_duration;
    out.hops.push_back(hb);
    upstream += hb.processing;
  });
  return out;
}

BudgetAttributor::BudgetAttributor(SimTime sla, SimTime window,
                                   ServiceNamer namer)
    : sla_(sla), window_(std::max<SimTime>(window, 1)), namer_(std::move(namer)) {}

std::string BudgetAttributor::name_of(ServiceId id) const {
  if (namer_) {
    std::string name = namer_(id);
    if (!name.empty()) return name;
  }
  return "service-" + std::to_string(id.value());
}

TimeSeriesSink& BudgetAttributor::sink_for(ServiceId id) {
  const auto it = sink_index_.find(id.value());
  if (it != sink_index_.end()) return sinks_[it->second];
  sink_index_.emplace(id.value(), sinks_.size());
  sink_names_.push_back(name_of(id));
  sinks_.emplace_back(sink_names_.back(), kColumns);
  return sinks_.back();
}

void BudgetAttributor::roll_window(SimTime trace_end) {
  if (!window_open_) {
    window_start_ = (trace_end / window_) * window_;
    window_open_ = true;
    return;
  }
  while (trace_end >= window_start_ + window_) {
    flush(window_start_ + window_);
    window_start_ += window_;
  }
}

void BudgetAttributor::on_budget(const TraceBudget& budget,
                                 SimTime completed_at) {
  roll_window(completed_at);
  ++traces_;
  for (const HopBudget& hop : budget.hops) {
    Accum& a = current_[hop.service.value()];
    const double slack_ms = to_msec(hop.slack);
    if (a.traces == 0 || slack_ms < a.min_slack_ms) a.min_slack_ms = slack_ms;
    ++a.traces;
    a.pt_sum_ms += to_msec(hop.processing);
    a.slack_sum_ms += slack_ms;
    if (hop.slack < 0) ++a.violations;
  }
}

void BudgetAttributor::flush(SimTime up_to) {
  if (current_.empty()) return;
  const double sla_ms = to_msec(sla_);
  for (const auto& [svc, a] : current_) {
    const double n = static_cast<double>(a.traces);
    const double mean_pt = a.traces ? a.pt_sum_ms / n : 0.0;
    const double row[] = {n,
                          mean_pt,
                          sla_ms > 0 ? mean_pt / sla_ms : 0.0,
                          a.traces ? a.slack_sum_ms / n : 0.0,
                          a.min_slack_ms,
                          static_cast<double>(a.violations)};
    sink_for(ServiceId(svc)).append(up_to, row);
  }
  current_.clear();
}

std::vector<std::pair<std::string, double>> BudgetAttributor::consumption_ms(
    SimTime from, SimTime to) const {
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < sinks_.size(); ++i) {
    const TimeSeriesSink& sink = sinks_[i];
    double total = 0.0;
    for (std::size_t r = 0; r < sink.num_rows(); ++r) {
      const SimTime at = sink.row_time(r);
      if (at < from || at > to) continue;
      total += sink.value(r, 0) * sink.value(r, 1);  // traces * mean_pt_ms
    }
    if (total > 0.0) out.emplace_back(sink_names_[i], total);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

std::string BudgetAttributor::top_consumer(SimTime from, SimTime to) const {
  const auto totals = consumption_ms(from, to);
  return totals.empty() ? std::string() : totals.front().first;
}

void BudgetAttributor::write_csv(std::ostream& os) const {
  os << "service,at_us";
  for (const std::string& c : kColumns) os << ',' << c;
  os << '\n';
  for (std::size_t i = 0; i < sinks_.size(); ++i) {
    const TimeSeriesSink& sink = sinks_[i];
    for (std::size_t r = 0; r < sink.num_rows(); ++r) {
      os << sink_names_[i] << ',' << sink.row_time(r);
      for (std::size_t c = 0; c < kColumns.size(); ++c) {
        std::string v;
        append_json_number(v, sink.value(r, c));
        os << ',' << v;
      }
      os << '\n';
    }
  }
}

void BudgetAttributor::write_jsonl(std::ostream& os) const {
  for (const TimeSeriesSink& sink : sinks_) sink.write_jsonl(os);
}

}  // namespace sora::obs
