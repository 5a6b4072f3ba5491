// Trace warehouse: bounded store of recent completed traces.
//
// Stands in for the paper's Neo4j + per-service MongoDB trace stores, and is
// the only consumer of the tracer's completed traces (attach installs it as
// the tracer's sink). Each stored trace has its critical path marked once;
// every per-trace consumer — the critical-service localizers, SLO analytics
// — is a store listener reading that marked copy, and the Concurrency
// Estimator's deadline propagation queries the window. A ring buffer bounds
// memory. Storage order is arrival order, which is not end-time order: a
// trace that outlives its root arrives one network hop after its last async
// span closes, while its end time is the root's departure.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>

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

  /// Count of traces ending in [from, to].
  std::size_t count_in_window(SimTime from, SimTime to) const;

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
  std::vector<std::function<void(const Trace&)>> store_listeners_;
  std::uint64_t total_stored_ = 0;
  std::uint64_t total_evicted_ = 0;
};

}  // namespace sora
