// A logical microservice: a set of replicas plus routing and runtime knobs.
//
// The Service is the unit the autoscalers and the Concurrency Adapter act
// on: replicas can be added/removed (horizontal scaling), the per-replica
// CPU limit changed (vertical scaling), and the soft-resource pools resized
// (Sora's contribution).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "admission/controller.h"
#include "admission/request.h"
#include "common/function.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "obs/metrics.h"
#include "svc/config.h"
#include "svc/instance.h"

namespace sora {

class Application;
class Simulator;
class Tracer;

/// A downstream call with its target resolved and its connection-pool slot
/// (if any) identified.
struct CompiledCall {
  Service* target = nullptr;
  int edge_index = -1;  ///< index into the caller instance's edge pools, -1 = ungated
};

struct CompiledGroup {
  std::vector<CompiledCall> calls;
};

/// An async callback edge with its target resolved. Never gated by a
/// connection pool: fire-and-forget sends hold no caller-side slot.
struct CompiledAsyncCall {
  Service* target = nullptr;
  int request_class = 0;
  Priority priority = Priority::kHigh;
};

struct CompiledBehavior {
  DemandSpec request_demand;
  DemandSpec response_demand;
  // Demand samplers with the scale multiplier folded in; refreshed by
  // set_demand_scale so the per-request path never recomputes log/sqrt.
  LognormalSampler request_sampler;
  LognormalSampler response_sampler;
  std::vector<CompiledGroup> groups;
  std::vector<CompiledAsyncCall> async_callbacks;
};

class Service {
 public:
  Service(Application& app, ServiceId id, ServiceConfig config, Rng rng);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Resolve call targets against the application's service map and spin up
  /// the initial replicas. Called once by Application after all services
  /// exist.
  void compile_and_start();

  // -- request path ----------------------------------------------------------

  /// Route a call (span already opened by the caller) to a replica. When an
  /// admission controller is installed and `pre_admitted` is false, the call
  /// is first run through admission: a shed closes the span immediately as a
  /// rejected error response (failed + rejected) and invokes `done`.
  /// `pre_admitted` is set by Application::inject for root requests it
  /// already admitted at the front door.
  void dispatch(Span& span, const RequestMeta& meta, UniqueFunction&& done,
                bool pre_admitted = false);

  // -- admission control -------------------------------------------------------

  /// Install (or replace) this service's admission controller. Pass nullptr
  /// to remove it.
  void set_admission(std::unique_ptr<AdmissionController> controller) {
    admission_ = std::move(controller);
  }
  AdmissionController* admission() { return admission_.get(); }
  const AdmissionController* admission() const { return admission_.get(); }

  /// Completion feedback from replicas: every admitted request that departs
  /// (served or aborted) reports its visit round-trip time here so the
  /// adaptive limits can track latency. No-op without a controller.
  void note_request_departure(SimTime rtt, bool ok);

  /// Behaviour for a class (falls back to class 0).
  const CompiledBehavior& behavior(int request_class) const;

  // -- identity --------------------------------------------------------------

  ServiceId id() const { return id_; }
  const std::string& name() const { return config_.name; }
  const ServiceConfig& config() const { return config_; }
  Application& app() { return app_; }

  // -- scaling knobs ---------------------------------------------------------

  /// Horizontal scaling: activate/deactivate replicas (creating new ones as
  /// needed). Deactivated replicas drain; they stop receiving traffic.
  void scale_replicas(int target);

  /// Vertical scaling: set the CPU limit (cores) of every replica.
  void set_cpu_limit(double cores);
  double cpu_limit() const { return cpu_limit_; }

  /// Soft-resource knobs (per replica).
  void resize_entry_pool(int per_replica);
  void resize_edge_pool(const std::string& target, int per_replica);
  int entry_pool_size() const { return entry_pool_size_; }
  int edge_pool_size(const std::string& target) const;

  /// Scale all CPU demands (models dataset growth / software updates —
  /// "system state drifting"). Folded into the compiled demand samplers.
  void set_demand_scale(double scale);
  double demand_scale() const { return demand_scale_; }

  // -- fault injection ---------------------------------------------------------

  /// Take replica `index` down. Returns false (and does nothing) when the
  /// index is invalid, the replica is already down, or it is the last
  /// active replica — routing requires >= 1 active. With `drop_inflight`,
  /// in-flight visits abort at their next continuation with failed spans;
  /// otherwise they drain like a scale-down.
  bool crash_replica(std::size_t index, bool drop_inflight);
  /// Bring a crashed/drained replica back with the current knob settings
  /// (CPU limit, pool sizes). Returns false when the index is invalid or
  /// the replica is already active.
  bool restore_replica(std::size_t index);
  /// Visits aborted by crashes, summed across replicas.
  std::uint64_t visits_dropped() const;

  // -- replica access & aggregates -------------------------------------------

  int active_replicas() const { return active_count_; }
  std::size_t total_replicas() const { return instances_.size(); }
  ServiceInstance& instance(std::size_t i) { return *instances_[i]; }
  const ServiceInstance& instance(std::size_t i) const { return *instances_[i]; }

  /// Sum of entry-pool slots in use across active replicas (the service's
  /// current request-processing concurrency).
  int entry_in_use() const;
  /// Sum of entry-pool capacities across active replicas.
  int entry_capacity() const;
  /// Sum of entry-pool usage integrals across ALL replicas (inactive
  /// replicas contribute a constant, so deltas remain exact).
  double entry_usage_integral() const;

  /// Sum of in-use / capacity / usage integral of the edge pools toward
  /// `target`.
  int edge_in_use(const std::string& target) const;
  int edge_capacity(const std::string& target) const;
  double edge_usage_integral(const std::string& target) const;

  /// Sum of CPU busy integrals (core-microseconds) across all replicas.
  double cpu_busy_integral() const;
  /// Aggregate CPU capacity in cores across active replicas.
  double cpu_capacity() const;

  std::uint64_t completions() const { return completions_; }

  /// Index of the edge pool for `target` in each instance's pool vector;
  /// -1 if that target has no gate configured.
  int edge_index_of(const std::string& target) const;

  /// Publish this service's current state into a metrics registry: scaling
  /// gauges (replicas, CPU limit), CPU busy total, and per-pool capacity /
  /// in-use / queue depth / wait totals for the entry pool and every edge
  /// pool. Labels: {service=<name>} plus {pool=entry|-><target>}.
  void publish_metrics(obs::MetricsRegistry& metrics) const;

 private:
  friend class ServiceInstance;

  /// Round robin over the active replicas, in instance order. Kubernetes
  /// services route round-robin-ish, and the paper's HPA experiments rely
  /// on the imbalance it produces right after a scale-out (Section 5.3).
  ServiceInstance& pick_replica(Priority priority);
  void note_completion() { ++completions_; }
  void refresh_samplers();
  /// Reactivate a down replica, syncing it to the current knob settings.
  void revive(ServiceInstance& inst);

  // What a visit reads comes first, so the request path touches the
  // object's first cache lines only; the configuration (~160 bytes) and the
  // knob state follow.
  Application& app_;
  ServiceId id_;
  std::vector<std::unique_ptr<ServiceInstance>> instances_;
  int active_count_ = 0;
  /// Next round-robin turn, one counter per priority class: batch traffic
  /// cannot skew the replica sequence the high-priority stream sees.
  std::uint64_t rr_next_[kNumPriorities] = {};
  std::unique_ptr<AdmissionController> admission_;
  // class -> compiled behaviour (index = class id; falls back to [0])
  std::vector<CompiledBehavior> behaviors_;
  std::uint64_t completions_ = 0;

  ServiceConfig config_;
  Rng rng_;

  // target name -> edge pool index (order of config_.edge_pools)
  std::map<std::string, int> edge_index_;
  std::vector<EdgePoolConfig> edge_configs_;  // by edge index
  std::vector<std::string> edge_names_;       // by edge index

  double cpu_limit_;
  int entry_pool_size_;
  std::vector<int> edge_pool_sizes_;  // by edge index (per replica)
  double demand_scale_ = 1.0;
};

}  // namespace sora
