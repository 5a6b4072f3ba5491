#include "core/localization.h"

#include <algorithm>

#include "sim/simulator.h"
#include "svc/application.h"
#include "trace/critical_path.h"

namespace sora {

std::vector<ServiceId> ranked_by_pcc(const CriticalServiceReport& report) {
  std::vector<ServiceDiagnostics> by_pcc = report.services;
  std::sort(by_pcc.begin(), by_pcc.end(),
            [](const ServiceDiagnostics& a, const ServiceDiagnostics& b) {
              if (a.pcc != b.pcc) return a.pcc > b.pcc;
              return a.service.value() < b.service.value();
            });
  std::vector<ServiceId> ranking;
  ranking.reserve(by_pcc.size() + 1);
  if (report.critical.valid()) ranking.push_back(report.critical);
  for (const ServiceDiagnostics& d : by_pcc) {
    if (!(d.service == report.critical)) ranking.push_back(d.service);
  }
  return ranking;
}

namespace {
std::size_t rank_of(const std::vector<ServiceId>& ranking, ServiceId id) {
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    if (ranking[i] == id) return i;
  }
  return SIZE_MAX;
}
}  // namespace

LocalizerCrossCheck cross_validate(
    const CriticalServiceReport& report,
    const std::vector<ServiceId>& causal_ranking) {
  LocalizerCrossCheck check;
  check.pearson_pick = report.critical;
  if (!causal_ranking.empty()) check.causal_pick = causal_ranking.front();
  check.agree = check.pearson_pick.valid() && check.causal_pick.valid() &&
                check.pearson_pick == check.causal_pick;
  const std::vector<ServiceId> pearson_ranking = ranked_by_pcc(report);
  if (check.causal_pick.valid()) {
    check.causal_pick_pearson_rank = rank_of(pearson_ranking, check.causal_pick);
  }
  if (check.pearson_pick.valid()) {
    check.pearson_pick_causal_rank = rank_of(causal_ranking, check.pearson_pick);
  }
  return check;
}

CriticalServiceLocalizer::CriticalServiceLocalizer(Application& app,
                                                   TraceWarehouse& warehouse,
                                                   LocalizerOptions options)
    : app_(app), warehouse_(warehouse), options_(options) {
  warehouse_.add_store_listener([this](const Trace& t) {
    if (t.end >= window_start_) accumulate(t);
  });
  begin_window();
}

void CriticalServiceLocalizer::accumulate(const Trace& t) {
  ++window_traces_;
  if (t.spans.empty()) return;
  const double rt_cp = static_cast<double>(t.root().duration());
  for_each_critical_hop(t, [&](const Span& hop) {
    const std::uint64_t sid = hop.service.value();
    if (sid >= accum_.size()) return;  // defensive: unknown service
    ++window_hops_;
    accum_[sid].add(static_cast<double>(hop.processing_time()), rt_cp);
  });
}

void CriticalServiceLocalizer::begin_window() {
  window_start_ = app_.sim().now();
  const std::size_t n = app_.services().size();
  busy_snapshot_.resize(n);
  accum_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    busy_snapshot_[i] = app_.services()[i]->cpu_busy_integral();
    accum_[i].reset();
  }
  // Restart the streaming state. Traces already in the warehouse whose
  // completion falls at or after the new window start stay in scope (the
  // boundary is inclusive, matching the old rescanning behaviour), so fold
  // them back in; everything later arrives via the store listener.
  window_traces_ = 0;
  window_hops_ = 0;
  warehouse_.for_each_in_window(window_start_, kSimTimeNever,
                                [this](const Trace& t) { accumulate(t); });
}

CriticalServiceReport CriticalServiceLocalizer::analyze() {
  CriticalServiceReport report;
  const SimTime now = app_.sim().now();
  const SimTime elapsed = now - window_start_;
  LocalizerRoundCost cost;
  cost.traces_folded = window_traces_;
  cost.hops_folded = window_hops_;

  // --- Step 1: utilization ---------------------------------------------------
  const std::size_t n = app_.services().size();
  diag_.assign(n, ServiceDiagnostics{});
  double top_util = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& svc = app_.services()[i];
    ServiceDiagnostics& d = diag_[i];
    d.service = svc->id();
    if (elapsed > 0) {
      const double busy0 = i < busy_snapshot_.size() ? busy_snapshot_[i] : 0.0;
      const double busy = svc->cpu_busy_integral() - busy0;
      const double capacity =
          svc->cpu_capacity() * static_cast<double>(elapsed);
      d.utilization = capacity > 0.0 ? busy / capacity : 0.0;
    }
    if (d.utilization > top_util) {
      top_util = d.utilization;
      report.by_utilization = svc->id();
    }
  }
  cost.services_scanned = n;

  // --- Step 2: PCC(PT_si, RT_CP), streamed since begin_window ------------------
  // The heavy lifting (co-moment accumulation over the critical-path hops
  // the warehouse marked) already happened at trace-store time; this pass
  // is O(services), and services the window's critical paths never touched
  // (acc.n == 0) cost one branch each.
  report.traces_analyzed = window_traces_;
  double top_pcc = -2.0;
  for (std::size_t i = 0; i < n && i < accum_.size(); ++i) {
    const CorrelationAccumulator& acc = accum_[i];
    if (acc.n == 0) continue;
    ++cost.accumulators_folded;
    ServiceDiagnostics& d = diag_[i];
    d.cp_appearances = static_cast<std::size_t>(acc.n);
    d.mean_pt_ms = to_msec(static_cast<SimTime>(acc.mean_x()));
    if (acc.n < options_.min_cp_appearances) continue;
    d.pcc = acc.r();
    if (d.pcc > top_pcc) {
      top_pcc = d.pcc;
      report.by_correlation = ServiceId(i);
    }
  }

  // --- Combine ----------------------------------------------------------------
  // Prefer the correlation winner among high-utilization candidates; fall
  // back to the global correlation winner, then the utilization winner.
  ServiceId best_candidate;
  double best_candidate_pcc = -2.0;
  for (const ServiceDiagnostics& d : diag_) {
    if (d.utilization >= options_.utilization_threshold &&
        d.cp_appearances >= options_.min_cp_appearances &&
        d.pcc > best_candidate_pcc) {
      best_candidate_pcc = d.pcc;
      best_candidate = d.service;
    }
  }
  if (best_candidate.valid()) {
    report.critical = best_candidate;
  } else if (report.by_correlation.valid()) {
    report.critical = report.by_correlation;
  } else {
    report.critical = report.by_utilization;
  }

  // --- Rank -------------------------------------------------------------------
  if (options_.top_k > 0 && options_.top_k < n) {
    // Top-k detail: O(n log k) partial sort with a deterministic id
    // tie-break, plus the verdict's entry appended if it fell outside.
    report.services.assign(diag_.begin(), diag_.end());
    const auto k =
        static_cast<std::vector<ServiceDiagnostics>::difference_type>(
            options_.top_k);
    std::partial_sort(
        report.services.begin(), report.services.begin() + k,
        report.services.end(),
        [&cost](const ServiceDiagnostics& a, const ServiceDiagnostics& b) {
          ++cost.sort_comparisons;
          if (a.pcc != b.pcc) return a.pcc > b.pcc;
          return a.service.value() < b.service.value();
        });
    report.services.resize(options_.top_k);
    bool has_critical = false;
    for (const ServiceDiagnostics& d : report.services) {
      if (d.service == report.critical) {
        has_critical = true;
        break;
      }
    }
    if (!has_critical && report.critical.valid() &&
        report.critical.value() < diag_.size()) {
      report.services.push_back(diag_[report.critical.value()]);
    }
  } else {
    // Full report, sorted by PCC with the historical comparator — the
    // exact sort the byte-parity suites pin down.
    report.services.assign(diag_.begin(), diag_.end());
    std::sort(report.services.begin(), report.services.end(),
              [&cost](const ServiceDiagnostics& a,
                      const ServiceDiagnostics& b) {
                ++cost.sort_comparisons;
                return a.pcc > b.pcc;
              });
  }
  last_cost_ = cost;
  return report;
}

}  // namespace sora
