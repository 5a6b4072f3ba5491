// Critical Service Localization Phase (Section 3.2, inspired by FIRM).
//
// Two-step method:
//   1. resource utilization — services running hot are candidates;
//   2. Pearson correlation of each service's per-request processing time
//      PT_si against the end-to-end response time of the critical path
//      RT_CP — the service whose processing time explains the latency
//      variation is the critical one.
//
// Step 2 streams: the localizer registers a store listener on the trace
// warehouse and folds each trace's critical-path hops — marked once by the
// warehouse as it stores the trace (trace/critical_path.h) — into
// per-service co-moment accumulators. The localizer never extracts a path
// itself, and a control round's analyze() costs O(services) instead of
// rescanning every trace in the window (see bench/micro_model_cost for the
// sweep).
//
// Whether this observational pick agrees with an experimentally measured
// causal ranking is CausalLab's question (harness/causal_lab.cc, the
// profile's `agree` flag); the localizer itself only reports.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "svc/utilization.h"
#include "trace/warehouse.h"

namespace sora {

class Application;

struct ServiceDiagnostics {
  ServiceId service;
  double utilization = 0.0;    ///< mean CPU utilization over the window (0..1)
  double pcc = 0.0;            ///< PCC(PT_si, RT_CP)
  double mean_pt_ms = 0.0;     ///< mean processing time on critical paths
  std::size_t cp_appearances = 0;  ///< traces whose critical path contains it
};

struct CriticalServiceReport {
  ServiceId critical;          ///< combined verdict (invalid if none found)
  ServiceId by_utilization;    ///< step-1 winner
  ServiceId by_correlation;    ///< step-2 winner
  std::vector<ServiceDiagnostics> services;  ///< per-service detail
  std::size_t traces_analyzed = 0;
};

struct LocalizerOptions {
  /// Cap the per-service detail in the report to the top-k entries by PCC
  /// (the combined verdict's entry is always kept, appended if it fell
  /// outside the top k). 0 = full report sorted by PCC, the historical
  /// behaviour. At thousands of services the full O(n log n) sort — and
  /// the report copy consumers then scan — dominates the round; top-k
  /// replaces it with an O(n log k) partial sort. The verdict itself is
  /// computed before any ranking and is identical in both modes.
  std::size_t top_k = 0;
};

/// Work performed by one localization round (begin_window .. analyze),
/// counted in ops rather than wall-clock so scale guards stay meaningful
/// under sanitizers and on loaded CI machines. The round cost must stay
/// O(services + traces·depth): nothing here may scale with
/// services × traces.
struct LocalizerRoundCost {
  std::size_t services_scanned = 0;      ///< step-1 utilization pass length
  std::size_t accumulators_folded = 0;   ///< step-2 entries with samples
  std::size_t sort_comparisons = 0;      ///< comparator calls while ranking
  std::size_t traces_folded = 0;         ///< traces folded since window start
  std::size_t hops_folded = 0;           ///< critical-path hops folded
  std::size_t total() const {
    return services_scanned + accumulators_folded + sort_comparisons +
           traces_folded + hops_folded;
  }
};

/// Streaming Pearson state: single-pass co-moment accumulation with a
/// first-sample shift (sums run over x - x0, y - y0), which keeps the
/// centered sums numerically stable without a second pass — the naive
/// Σxy - ΣxΣy/n form cancels catastrophically when means dwarf variances,
/// as they do for microsecond timestamps. r() matches the two-pass
/// stats::pearson within floating-point tolerance, including its
/// conventions: fewer than two samples or a constant series yields 0.
struct CorrelationAccumulator {
  std::uint64_t n = 0;
  double kx = 0.0, ky = 0.0;             ///< shifts (first sample)
  double sx = 0.0, sy = 0.0;             ///< Σ(x-kx), Σ(y-ky)
  double sxx = 0.0, syy = 0.0, sxy = 0.0;  ///< shifted second moments

  void add(double x, double y) {
    if (n == 0) {
      kx = x;
      ky = y;
    }
    const double dx = x - kx;
    const double dy = y - ky;
    ++n;
    sx += dx;
    sy += dy;
    sxx += dx * dx;
    syy += dy * dy;
    sxy += dx * dy;
  }

  double mean_x() const {
    return n == 0 ? 0.0 : kx + sx / static_cast<double>(n);
  }

  /// Pearson correlation of everything added so far.
  double r() const {
    if (n < 2) return 0.0;
    const double inv_n = 1.0 / static_cast<double>(n);
    const double cxx = sxx - sx * sx * inv_n;
    const double cyy = syy - sy * sy * inv_n;
    const double cxy = sxy - sx * sy * inv_n;
    if (cxx <= 0.0 || cyy <= 0.0) return 0.0;
    return cxy / std::sqrt(cxx * cyy);
  }

  void reset() { *this = CorrelationAccumulator{}; }
};

class CriticalServiceLocalizer {
 public:
  /// Registers a store listener on `warehouse`: both must outlive this
  /// localizer, and the warehouse must not store traces after it dies.
  CriticalServiceLocalizer(Application& app, TraceWarehouse& warehouse,
                           LocalizerOptions options = {});

  /// Mark the start of a measurement window (snapshots CPU integrals,
  /// resets the correlation accumulators, and re-folds any already-stored
  /// traces whose completion falls at or after the new window start).
  void begin_window();

  /// Analyze traces completed in [window start, now] and return the report.
  CriticalServiceReport analyze();

  /// Op-count of the most recent analyze() round (plus the folds feeding
  /// it). Valid after the first analyze().
  const LocalizerRoundCost& last_round_cost() const { return last_cost_; }

 private:
  /// Fold one stored trace's marked critical-path hops into the
  /// accumulators.
  void accumulate(const Trace& t);

  Application& app_;
  TraceWarehouse& warehouse_;
  LocalizerOptions options_;

  SimTime window_start_ = 0;
  // Step 1's window: its own epoch, opened by begin_window(), independent
  // of any scaler's tracker over the same application.
  UtilizationTracker util_;
  // Streaming PCC(PT_si, RT_CP) state for the current window. Fed by the
  // warehouse store listener (trace-completion context); read by analyze()
  // in control-round context.
  std::vector<CorrelationAccumulator> accum_;
  // analyze() scratch, reused across rounds.
  std::vector<ServiceDiagnostics> diag_;
  std::size_t window_traces_ = 0;
  std::size_t window_hops_ = 0;
  LocalizerRoundCost last_cost_;
};

}  // namespace sora
