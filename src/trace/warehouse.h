// Trace warehouse: bounded store of recent completed traces.
//
// Stands in for the paper's Neo4j + per-service MongoDB trace stores, and is
// the only consumer of the tracer's completed traces (attach installs it as
// the tracer's sink). Each stored trace has its critical path marked once.
// On the control path it is read three ways:
//   * store listeners see each trace once, as it is stored: the
//     critical-service localizers' correlation accumulators and SLO
//     analytics;
//   * for_each_in_window visits the traces of one window: FIRM's end-to-end
//     p99, LSRAM's per-knob violation counts, Autothrottle's per-service
//     p99, and CriticalServiceLocalizer::begin_window's re-fold after a
//     window restart. A running maximum of the end times, one value per
//     64 stored traces, lets the scan start at the first block that can
//     hold a trace of the window, so a round costs what its window holds,
//     not what the ring holds;
//   * Sora's deadline propagation (core/deadline.cc) reads a tracked
//     service's upstream column: each retained trace's end and the upstream
//     PT of that service's first critical hop, filled at store time, so the
//     spans of the window's traces are not walked again.
// Off the control path, the Chrome trace export and causal alignment read
// whole traces from the ring.
// A ring buffer bounds memory; the columns are evicted with it. Storage order
// is arrival order, which is not end-time order: a trace that outlives its
// root arrives one network hop after its last async span closes, while its
// end time is the root's departure.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "trace/span.h"
#include "trace/tracer.h"

namespace sora {

class TraceWarehouse {
 public:
  /// `capacity` bounds the number of retained traces (oldest evicted first).
  explicit TraceWarehouse(std::size_t capacity = 65536);

  /// Install this warehouse as the tracer's completed-trace sink.
  void attach(Tracer& tracer);

  /// Store a copy of a completed trace (the tracer sink's path; tests call
  /// it directly). This is where each trace's critical path is extracted,
  /// once: its hops are marked Span::on_critical_path on the stored copy
  /// before any store listener sees it.
  void store(const Trace& trace);

  /// Observe every trace as it is stored, critical path already marked. The
  /// critical-service localizers stream their correlation accumulators from
  /// here so control rounds no longer rescan the window, and SLO analytics
  /// attributes each trace's budget from here.
  void add_store_listener(std::function<void(const Trace&)> fn) {
    store_listeners_.push_back(std::move(fn));
  }

  /// Visit traces whose end time falls in [from, to], in storage order.
  void for_each_in_window(SimTime from, SimTime to,
                          const std::function<void(const Trace&)>& fn) const;

  /// Where a window scan from `from`, over the ring or over an upstream
  /// column, starts: every retained trace stored before this position ended
  /// before `from`. It is the first trace of the first block of kEndMaxBlock
  /// traces that can hold one ending at or after `from`.
  std::size_t window_begin(SimTime from) const;

  /// One retained trace's entry in an upstream column.
  struct UpstreamEntry {
    SimTime end = 0;  ///< the trace's end time
    /// upstream_processing_time(trace, service) (trace/critical_path.h): the
    /// PT of the critical hops above the service's first critical hop, or
    /// -1 when the service is not on the critical path.
    SimTime upstream = -1;
  };

  /// Keep an upstream column for `service` from now on: one entry per
  /// retained trace, in storage order, back-filled from the traces already
  /// retained. Tracking a service twice keeps one column.
  void track_upstream(ServiceId service);

  /// The upstream column of a tracked service (entry i belongs to the i-th
  /// retained trace), or nullptr when `service` is not tracked.
  const std::deque<UpstreamEntry>* upstream_column(ServiceId service) const;

  /// Order-sensitive FNV-1a fingerprint of every retained trace (ids, span
  /// services, message timestamps, failure flags; not the critical-path
  /// marks, which derive from those). Two warehouses from byte-identical
  /// runs digest equal; any timing or structural divergence
  /// changes the value. Used by the causal profiler's control-run check.
  std::uint64_t digest() const;

  std::size_t size() const { return traces_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t total_stored() const { return total_stored_; }
  std::uint64_t total_evicted() const { return total_evicted_; }

 private:
  std::size_t capacity_;
  std::deque<Trace> traces_;  // arrival order (see the header comment)
  // Running maximum of the end times, one value per block of kEndMaxBlock
  // traces; blocks are aligned to absolute storage positions, evicted
  // traces counted. block_end_max_[k] bounds the end of every retained trace
  // in the k-th retained block and the blocks before it, and never decreases
  // with k. A block leaves with its last trace. One value per block rather
  // than per trace keeps the index off the ring's memory.
  static constexpr std::size_t kEndMaxBlock = 64;
  std::deque<SimTime> block_end_max_;
  // (service, its upstream column), each column in lockstep with traces_.
  std::vector<std::pair<ServiceId, std::deque<UpstreamEntry>>> upstream_;
  // Per tracked column: whether the trace being stored has met the
  // column's service on its critical path yet (store()'s scratch).
  std::vector<char> upstream_seen_;
  std::vector<std::function<void(const Trace&)>> store_listeners_;
  std::uint64_t total_stored_ = 0;
  std::uint64_t total_evicted_ = 0;
};

}  // namespace sora
