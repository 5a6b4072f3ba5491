// Per-request latency-budget attribution.
//
// The deadline-propagation rule (Section 3.2, Eq. 1-3) says a service's
// local deadline is the end-to-end SLA minus the processing time its
// ancestors already consumed. This module turns that rule into an
// observability signal: every completed trace is decomposed along its
// critical path into per-hop budget consumption (processing time), the
// propagated deadline at that hop, and the remaining slack; per-service
// consumption is then aggregated into fixed windows (one per control round)
// and exported as TimeSeriesSink timelines — answering "which service ate
// the SLA budget when the episode started?". The experiment harness feeds it
// from a trace-warehouse store listener; nothing is written back onto spans.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "obs/timeseries.h"
#include "trace/span.h"

namespace sora::obs {

/// One hop of a trace's critical path, with its budget accounting.
struct HopBudget {
  ServiceId service;
  SimTime processing = 0;     ///< PT of this hop (budget it consumed)
  SimTime span_duration = 0;  ///< full visit duration at this hop
  SimTime deadline = 0;       ///< propagated local deadline (Eq. 1-3)
  SimTime slack = 0;          ///< deadline - span_duration
};

/// A traced request's critical path decomposed into budget consumption.
struct TraceBudget {
  TraceId id;
  SimTime sla = 0;
  SimTime response = 0;
  bool met_sla = false;
  std::vector<HopBudget> hops;  ///< root first, deepest hop last

  /// Hop that consumed the most budget (largest processing time); nullptr
  /// for an empty decomposition.
  const HopBudget* top_consumer() const;
};

/// Decompose `trace`'s critical path into per-hop budget consumption.
TraceBudget attribute_budget(const Trace& trace, SimTime sla);

/// Aggregates per-trace attributions into fixed windows and per-service
/// totals. Window boundaries follow trace completion times, so one window
/// per control round lines attribution up with the decision log.
class BudgetAttributor {
 public:
  using ServiceNamer = std::function<std::string(ServiceId)>;

  /// `window` is the aggregation granularity (typically the control period).
  /// `namer` renders service ids in exports ("service-<id>" fallback).
  BudgetAttributor(SimTime sla, SimTime window, ServiceNamer namer = nullptr);

  /// Accumulate one completed trace's decomposition (attribute_budget) into
  /// the window containing `completed_at`.
  void on_budget(const TraceBudget& budget, SimTime completed_at);

  /// Close the window containing `up_to` (appends rows for every service
  /// seen in it). Called automatically as traces cross window boundaries;
  /// call once at end-of-run to flush the tail.
  void flush(SimTime up_to);

  SimTime sla() const { return sla_; }
  SimTime window() const { return window_; }
  std::uint64_t traces_attributed() const { return traces_; }

  /// Per-service attribution timeline. Columns: traces, mean_pt_ms,
  /// budget_share (mean PT / SLA), mean_slack_ms, min_slack_ms, violations
  /// (hops that exhausted their budget).
  const std::vector<TimeSeriesSink>& timelines() const { return sinks_; }

  /// Aggregate over every window row intersecting [from, to] and return the
  /// service with the largest total attributed processing time ("" when no
  /// data). `to` = kSimTimeNever means "until the end".
  std::string top_consumer(SimTime from = 0, SimTime to = kSimTimeNever) const;

  /// Total attributed budget share per service over [from, to]: service name
  /// -> sum of (PT contribution, weighted by traces).
  std::vector<std::pair<std::string, double>> consumption_ms(
      SimTime from = 0, SimTime to = kSimTimeNever) const;

  /// Combined CSV across services: service,at_us,<columns...>.
  void write_csv(std::ostream& os) const;
  /// One JSONL object per (service, window) row.
  void write_jsonl(std::ostream& os) const;

 private:
  struct Accum {
    std::uint64_t traces = 0;
    double pt_sum_ms = 0.0;
    double slack_sum_ms = 0.0;
    double min_slack_ms = 0.0;
    std::uint64_t violations = 0;
  };

  std::string name_of(ServiceId id) const;
  TimeSeriesSink& sink_for(ServiceId id);
  void roll_window(SimTime trace_end);

  SimTime sla_;
  SimTime window_;
  ServiceNamer namer_;

  SimTime window_start_ = 0;
  bool window_open_ = false;
  std::uint64_t traces_ = 0;
  std::map<std::uint64_t, Accum> current_;  // ServiceId value -> accum
  std::map<std::uint64_t, std::size_t> sink_index_;
  std::vector<TimeSeriesSink> sinks_;
  std::vector<std::string> sink_names_;
};

}  // namespace sora::obs
