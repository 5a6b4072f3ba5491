#include "core/localization.h"

#include <algorithm>

#include "sim/simulator.h"
#include "svc/application.h"
#include "trace/critical_path.h"

namespace sora {

/// Step-1 candidate threshold: utilization above this marks a candidate.
constexpr double kUtilizationThreshold = 0.5;
/// Minimum critical-path appearances for the PCC to be trusted.
constexpr std::size_t kMinCpAppearances = 10;

CriticalServiceLocalizer::CriticalServiceLocalizer(Application& app,
                                                   TraceWarehouse& warehouse,
                                                   LocalizerOptions options)
    : app_(app), warehouse_(warehouse), options_(options), util_(app) {
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
  util_.epoch();
  // Indexed by ServiceId value (the service set is fixed after
  // construction), allocated once and reset in place each window.
  accum_.resize(app_.services().size());
  for (CorrelationAccumulator& acc : accum_) acc.reset();
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
    d.utilization = util_.utilization(*svc);
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
    if (acc.n < kMinCpAppearances) continue;
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
    if (d.utilization >= kUtilizationThreshold &&
        d.cp_appearances >= kMinCpAppearances &&
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
