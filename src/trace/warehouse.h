// Trace warehouse: bounded store of recent completed traces.
//
// Stands in for the paper's Neo4j + per-service MongoDB trace stores: the
// Concurrency Estimator pulls recent traces from here asynchronously for
// critical-service localization and deadline propagation, both of which
// read the critical-path marks stamped at store time. A ring buffer bounds
// memory; queries filter by completion-time window.
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

  /// Wire the warehouse to a tracer. `sample_every_n` > 1 stores only every
  /// n-th completed trace — the head-based sampling production tracing
  /// systems use to bound collection overhead (the paper's Section 6
  /// scalability concern). The ablation benches quantify what sampling
  /// costs the localization/deadline phases.
  void attach(Tracer& tracer, std::uint64_t sample_every_n = 1);

  /// Store a completed trace (the tracer listener's path; tests call it
  /// directly). This is where each trace's critical path is extracted, once:
  /// its hops are marked Span::on_critical_path on the stored copy before
  /// any store listener sees it.
  void store(Trace trace);

  /// Observe every trace as it is stored (after sampling/eviction policy
  /// admits it), critical path already marked. The critical-service
  /// localizer streams its correlation accumulators from here so control
  /// rounds no longer rescan the window.
  void add_store_listener(std::function<void(const Trace&)> fn) {
    store_listeners_.push_back(std::move(fn));
  }

  /// Visit traces whose end time falls in [from, to]. Traces are visited
  /// oldest-first.
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
  std::deque<Trace> traces_;  // ordered by completion time
  std::vector<std::function<void(const Trace&)>> store_listeners_;
  std::uint64_t total_stored_ = 0;
  std::uint64_t total_evicted_ = 0;
};

}  // namespace sora
