// One replica (pod) of a microservice.
//
// An instance owns the physical execution resources of a replica: a CPU
// scheduler bounded by the pod's CPU limit, an entry soft-resource pool
// (server threads) and per-target connection pools. Requests flow through
// the state machine:
//
//   arrive -> entry pool (queue) -> request CPU -> downstream call groups
//          -> response CPU -> depart
//
// RPCs are synchronous: the entry slot is held across downstream calls,
// which is how soft-resource pressure propagates along the call chain.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "admission/request.h"
#include "common/function.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "svc/cpu.h"
#include "svc/soft_resource.h"

namespace sora {

class Service;
struct CompiledBehavior;
struct Span;

class ServiceInstance {
 public:
  using Done = UniqueFunction;

  ServiceInstance(Service& service, InstanceId id);
  ~ServiceInstance();

  ServiceInstance(const ServiceInstance&) = delete;
  ServiceInstance& operator=(const ServiceInstance&) = delete;

  /// Serve a request visit whose span `span` was already opened by the
  /// caller (arrival stamped). `done` runs after the span is finished.
  /// `meta` carries the class plus the admission metadata (priority,
  /// deadline) propagated to downstream calls.
  void serve(Span& span, const RequestMeta& meta, Done&& done);

  InstanceId id() const { return id_; }
  bool active() const { return active_; }
  void set_active(bool a) { active_ = a; }
  int outstanding() const { return outstanding_; }

  /// Fault injection: condemn every in-flight visit. A condemned visit
  /// aborts at its next continuation (entry admission, group boundary, or
  /// before the response phase): the span closes immediately with
  /// `failed = true`, the entry slot is released, and the caller's `done`
  /// runs as if an error response was returned. CPU slices and downstream
  /// RPCs already in progress complete first — the simulator has no job
  /// preemption, and child spans must close through their own services.
  void condemn_in_flight();
  /// Visits aborted by condemn_in_flight over this instance's lifetime.
  std::uint64_t visits_dropped() const { return visits_dropped_; }

  CpuScheduler& cpu() { return cpu_; }
  const CpuScheduler& cpu() const { return cpu_; }
  SoftResourcePool& entry_pool() { return entry_pool_; }
  const SoftResourcePool& entry_pool() const { return entry_pool_; }

  /// Connection pool toward the target with the given edge index, or
  /// nullptr when that edge is ungated.
  SoftResourcePool* edge_pool(int edge_index);
  const SoftResourcePool* edge_pool(int edge_index) const;

 private:
  /// Per-request-visit state shared by the callbacks of the state machine.
  /// Pooled: recycled through the free list rather than heap-allocated per
  /// request, so capturing a raw Visit* is safe until finish() releases it.
  struct Visit {
    /// This visit's span. Open until finish()/abort_visit() closes it, and
    /// spans live in a deque, so the pointer stays valid for the whole
    /// visit.
    Span* span = nullptr;
    int request_class = 0;
    Priority priority = Priority::kHigh;
    SimTime deadline = 0;  ///< absolute; propagated to downstream calls
    SimTime arrived = 0;   ///< serve() time; visit RTT = departure - arrived
    Done done;
    const CompiledBehavior* behavior = nullptr;
    SimTime blocked_since = 0;
    int pending_calls = 0;  ///< downstream calls outstanding in current group
    bool in_flight = false;  ///< currently serving a request
    bool condemned = false;  ///< crash dropped this visit; abort at next step
    Visit* next_free = nullptr;  ///< free-list link while idle
  };

  /// CPU job tokens: the visit's address with the low bit naming the phase
  /// (Visit is pointer-aligned, so the bit is always free).
  static constexpr CpuScheduler::Token kResponsePhase = 1;
  static void on_cpu_done(void* self, CpuScheduler::Token token);

  /// Grab a recycled Visit (or grow the pool). Visits return to the free
  /// list in finish(); instances are never destroyed mid-run (scale-down
  /// only deactivates), so pooled pointers stay valid for the whole sim.
  Visit* alloc_visit();
  void free_visit(Visit* v);

  void on_admitted(Visit* v);
  void run_group(Visit* v, std::size_t group_index);
  void issue_call(Visit* v, std::size_t group_index, std::size_t call_index);
  void on_groups_done(Visit* v);
  /// Fire the behaviour's async callback edges as the visit completes:
  /// each opens a detached child span (ChildCall.async) in the parent
  /// trace and dispatches to its target over the network, but the response
  /// departs without waiting — issued before finish_span so the parent
  /// span is still open to record the ChildCall.
  void issue_async_callbacks(Visit* v);
  void finish(Visit* v);
  /// Close a condemned visit early: failed span, entry slot released,
  /// caller's done() invoked (conservation holds — every arrival departs).
  void abort_visit(Visit* v);

  Service& svc_;
  InstanceId id_;
  bool active_ = true;
  int outstanding_ = 0;
  std::uint64_t visits_dropped_ = 0;

  CpuScheduler cpu_;
  SoftResourcePool entry_pool_;
  // Indexed by the service's edge-pool index; entries may be null (ungated).
  std::vector<std::unique_ptr<SoftResourcePool>> edge_pools_;
  Rng rng_;

  // Visit pool: visits_ owns every Visit ever allocated, in chunks that
  // never move (a deque grows at the back without relocating); the idle
  // ones are linked through Visit::next_free from free_visits_.
  std::deque<Visit> visits_;
  Visit* free_visits_ = nullptr;
};

}  // namespace sora
